"""The perf ledger tool (``benchmarks/ledger.py``): it only reads the repo
benchmark's ``result.json`` files, gates CI on them and folds them into
``BENCH_e2e.json`` rows."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ledger", ROOT / "benchmarks" / "ledger.py")
ledger = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ledger)


def result_file(tmp_path, seed, wall, rss, failed=0, digest_match=None, workload="iperf_tls_rx_loss"):
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "sim_ms_per_s": {"value": 40.0 / wall, "unit": "ms/s"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"},
        "setup_s": {"value": 0.5, "unit": "s"},
    }
    if digest_match is not None:
        metrics["trace.digest_match"] = {"value": digest_match, "unit": "count"}
        metrics["tcp.share"] = {"value": 0.31234, "unit": "ratio"}
        metrics["sim.share"] = {"value": 0.0, "unit": "ratio"}
    detail = {
        "seed": seed,
        "runs": {},
        "result": {"correct": failed == 0, "attempted": 5, "failed": failed, "metrics": {workload: metrics}},
    }
    path = tmp_path / f"result_{workload}_{seed}.json"
    path.write_text(json.dumps(detail))
    return str(path)


def test_committed_ledger_is_what_the_tool_writes():
    text = (ROOT / "BENCH_e2e.json").read_text()
    doc = json.loads(text)
    assert ledger.dumps(doc) == text  # appended by the tool, not edited by hand
    workloads, e2e, _layers = ledger.declared()
    for row in doc["rows"]:
        assert list(row["metrics"]) == workloads, (row["pr"], row["side"])
        assert all(list(metrics) == e2e for metrics in row["metrics"].values())
        assert row["loc"]["total"] == sum(v for k, v in row["loc"].items() if k != "total")
    assert [(r["pr"], r["side"]) for r in doc["rows"][:2]] == [(14, "parent"), (14, "change")]


def test_check_gates_on_failed_reps_and_digest_mismatch(tmp_path, capsys):
    assert ledger.main(["check", result_file(tmp_path, 0, 1.5, 30.0, digest_match=1)]) == 0
    assert ledger.main(["check", result_file(tmp_path, 1, 1.5, 30.0)]) == 0  # untraced run: nothing to match
    assert ledger.main(["check", result_file(tmp_path, 2, 1.5, 30.0, failed=1)]) == 1
    assert ledger.main(["check", result_file(tmp_path, 3, 1.5, 30.0, digest_match=0)]) == 1
    assert "digest mismatch on ['iperf_tls_rx_loss']" in capsys.readouterr().out


def test_append_folds_invocations_into_one_row(tmp_path, monkeypatch):
    target = tmp_path / "BENCH_e2e.json"
    target.write_text(ledger.dumps({"schema": 1, "rows": []}))
    monkeypatch.setattr(ledger, "LEDGER", str(target))
    walls = [1.9, 1.5, 1.7, 1.6, 1.8]  # seeds 4..0: the row is in seed order whatever the argument order
    files = [result_file(tmp_path, 4 - i, wall, 30.0 + i) for i, wall in enumerate(walls)]
    files.append(result_file(tmp_path, 0, 2.0, 55.0, digest_match=1, workload="exec_grid_2w"))
    src = tmp_path / "src"
    (src / "tcp").mkdir(parents=True)
    (src / "tcp" / "buffer.py").write_text("a\nb\nc\n")
    (src / "__init__.py").write_text("x\n")
    args = ["append", "--pr", "17", "--side", "change", "--rev", "abc1234", "--src", str(src), "--note", "n", *files]
    assert ledger.main(args) == 0
    (row,) = json.loads(target.read_text())["rows"]
    assert (row["pr"], row["side"], row["rev"], row["seeds"]) == (17, "change", "abc1234", [0, 1, 2, 3, 4])
    assert (row["failed"], row["attempted"]) == (0, 30)
    wall = row["metrics"]["iperf_tls_rx_loss"]["wall_s"]
    assert wall["values"] == walls[::-1] and wall["median"] == 1.7 and wall["n"] == 5
    assert wall["iqr"] == pytest.approx(0.3)
    assert row["metrics"]["exec_grid_2w"]["peak_rss_mb"] == {"median": 55.0, "iqr": None, "n": 1, "values": [55.0]}
    assert list(row["metrics"]) == ["iperf_tls_rx_loss", "exec_grid_2w"]  # BENCHMARK.json order
    assert row["layer_shares"] == {"exec_grid_2w": {"tcp": 0.3123}}  # zero shares are left out
    assert row["loc"] == {"(top level)": 1, "tcp": 3, "total": 4}
