"""Chaos soak points: determinism for fixed seeds, the heavy scenario's
guaranteed auto-disable, and the reset storm's clean recovery.  The
multi-seed grid is the gated ``chaos_soak`` benchmark figure."""

import pytest

from repro.faults.chaos import HEAVY_PLAN, RESET_STORM_SEED, chaos_point, run_tls


class TestChaosDeterminism:
    def test_identical_seeds_identical_summaries(self):
        for workload in ("tls", "nvme"):
            a = chaos_point(workload, seed=1, duration=6e-3)
            assert a == chaos_point(workload, seed=1, duration=6e-3)
            assert a["verified"] > 0
            assert a["mismatches"] == 0
            assert a["sanitizer_violations"] == 0

    def test_different_seeds_differ(self):
        a = chaos_point("tls", seed=1, duration=6e-3)
        b = chaos_point("tls", seed=2, duration=6e-3)
        assert a["link_to_server"] != b["link_to_server"]


class TestChaosVerdicts:
    @pytest.mark.parametrize("workload", ["tls", "nvme"])
    def test_storm_scenario_survives_resets(self, workload):
        result = chaos_point(workload, seed=RESET_STORM_SEED, duration=8e-3, storm=True)
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
    """``connections``: the full soak grid's elevated TLS flow count."""

    def test_elevated_connections_verify_cleanly(self):
        result = chaos_point("tls", seed=2, duration=8e-3, connections=8)
        assert result["connections"] == 8
        assert result["verified"] > 0
        assert result["mismatches"] == 0
        assert result["sanitizer_violations"] == 0
        # One verified count per accepted connection, summing to the total.
        assert len(result["conn_verified"]) == 8
        assert sum(result["conn_verified"]) == result["verified"]

    def test_default_summary_has_no_connections_key(self):
        result = chaos_point("tls", seed=2, duration=6e-3)
        assert "connections" not in result
