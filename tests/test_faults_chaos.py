"""Chaos harness smoke: determinism for fixed seeds, the heavy
scenario's guaranteed auto-disable, and a clean (OK) verdict."""

import json

from repro.faults.chaos import HEAVY_PLAN, main, run_chaos, run_tls


class TestChaosDeterminism:
    def test_identical_seeds_identical_summaries(self):
        a = run_chaos(seeds=2, workloads=("tls", "nvme"), duration=6e-3, heavy=False)
        b = run_chaos(seeds=2, workloads=("tls", "nvme"), duration=6e-3, heavy=False)
        assert a == b

    def test_different_seeds_differ(self):
        a = run_chaos(seeds=1, workloads=("tls",), duration=6e-3, heavy=False, base_seed=1)
        b = run_chaos(seeds=1, workloads=("tls",), duration=6e-3, heavy=False, base_seed=2)
        assert a["runs"][0]["link_to_server"] != b["runs"][0]["link_to_server"]


class TestChaosVerdicts:
    def test_soak_is_clean_and_verifies_content(self):
        report = run_chaos(seeds=2, workloads=("tls", "nvme"), duration=8e-3, heavy=True)
        assert report["ok"]
        totals = report["totals"]
        assert totals["runs"] == 8  # 2 seeds x 2 workloads + 2 heavy + 2 storm
        assert totals["verified"] > 0
        assert totals["mismatches"] == 0
        assert totals["sanitizer_violations"] == 0
        # The reset-storm scenario really reset the NIC, and recovery held.
        assert totals["nic_resets"] > 0

    def test_storm_scenario_survives_resets(self):
        from repro.faults.chaos import chaos_point

        result = chaos_point("tls", seed=777, duration=8e-3, storm=True)
        assert result["storm"] is True
        assert result["lifecycle"]["resets"] >= 1
        assert result["lifecycle"]["reinstalls"] > 0
        assert result["mismatches"] == 0
        assert result["sanitizer_violations"] == 0
        assert result["verified"] > 0

    def test_heavy_scenario_fires_auto_disable(self):
        from repro.analysis import sanitizer
        from repro.faults.chaos import HEAVY_SEED

        with sanitizer.enabled():
            result = run_tls(HEAVY_SEED, HEAVY_PLAN, duration=10e-3)
        assert result["auto_disabled"] > 0
        assert result["offload_degraded"] > 0
        assert result["mismatches"] == 0


class TestChaosConnections:
    """The --connections knob: the scale-soak lane's elevated flow count."""

    def test_elevated_connections_verify_cleanly(self):
        from repro.faults.chaos import chaos_point

        result = chaos_point("tls", seed=2, duration=8e-3, connections=8)
        assert result["connections"] == 8
        assert result["verified"] > 0
        assert result["mismatches"] == 0
        assert result["sanitizer_violations"] == 0
        # One verified count per accepted connection, summing to the total.
        assert len(result["conn_verified"]) == 8
        assert sum(result["conn_verified"]) == result["verified"]

    def test_default_summary_has_no_connections_key(self):
        from repro.faults.chaos import chaos_point

        result = chaos_point("tls", seed=2, duration=6e-3)
        assert "connections" not in result

    def test_connections_flow_through_run_chaos(self):
        report = run_chaos(
            seeds=1, workloads=("tls",), duration=6e-3, heavy=False, connections=4
        )
        assert report["ok"]
        assert all(r["connections"] == 4 for r in report["runs"])


class TestChaosCli:
    def test_main_writes_json_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["--seeds", "1", "--workloads", "tls", "--duration", "6e-3", "--json", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "-> OK" in text
        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert report["totals"]["runs"] == 3  # one seeded + one heavy + one storm

    def test_max_seconds_deadline_fails_loudly(self, tmp_path, capsys):
        crash = tmp_path / "crash.json"
        code = main(
            [
                "--seeds", "2", "--workloads", "tls", "--duration", "6e-3",
                "--max-seconds", "0", "--crash-report", str(crash),
            ]
        )
        assert code == 1
        text = capsys.readouterr().out
        assert "deadline" in text
        assert "-> FAIL" in text
        # The crash-report artifact records the wedge even when no run
        # failed on correctness: CI uploads it on any red soak.
        report = json.loads(crash.read_text())
        assert report["deadline_exceeded"] is True
        assert report["failing_runs"] == []

    def test_no_storm_flag_drops_storm_points(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["--seeds", "1", "--workloads", "tls", "--duration", "6e-3",
             "--no-heavy", "--no-storm", "--json", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["totals"]["runs"] == 1

    def test_main_rejects_unknown_workload(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main(["--workloads", "bogus"])
        assert "unknown workloads" in capsys.readouterr().err
