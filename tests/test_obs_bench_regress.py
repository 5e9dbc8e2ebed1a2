"""Tests for the machine-readable benchmark records (repro.obs.bench),
the perf-regression gate (python -m repro.obs.regress) and the benchmark
suite's Figure driver (benchmarks/benchlib.py)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.obs.bench import bench_record, load_bench_json, write_bench_json
from repro.obs.regress import compare_metrics, load_baseline, main, run_regression

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))
import benchlib  # noqa: E402 (path set up above)


class TestBenchRecords:
    def test_write_and_load_round_trip(self, tmp_path):
        path = write_bench_json(str(tmp_path), "fig", {"a.gbps": 1.5, "a.count": 3}, meta={"streams": 4})
        record = load_bench_json(path)
        assert record["schema"] == 1
        assert record["name"] == "fig"
        assert record["metrics"] == {"a.gbps": 1.5, "a.count": 3}
        assert record["meta"] == {"streams": 4}

    def test_meta_omitted_when_empty(self):
        assert "meta" not in bench_record("fig", {"m": 1})

    def test_non_numeric_metric_rejected(self):
        with pytest.raises(TypeError):
            bench_record("fig", {"m": "fast"})
        with pytest.raises(TypeError):
            bench_record("fig", {"m": True})

    def test_non_string_key_rejected(self):
        with pytest.raises(TypeError):
            bench_record("fig", {3: 1.0})

    def test_load_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "metrics": {}}))
        with pytest.raises(ValueError):
            load_bench_json(str(path))
        path.write_text(json.dumps({"schema": 1}))
        with pytest.raises(ValueError):
            load_bench_json(str(path))


class TestCompareMetrics:
    def test_exact_match_passes(self):
        (d,) = compare_metrics("b", {"m": 10.0}, {"m": 10.0})
        assert not d.failed
        (d,) = compare_metrics("b", {"m": 3}, {"m": 3.0})
        assert not d.failed

    def test_beyond_tolerance(self):
        (d,) = compare_metrics("b", {"m": 10.0}, {"m": 5.0})
        assert d.failed

    def test_zero_baseline_must_stay_zero(self):
        (ok,) = compare_metrics("b", {"m": 0}, {"m": 0})
        assert not ok.failed
        (bad,) = compare_metrics("b", {"m": 0}, {"m": 1})
        assert bad.failed

    def test_missing_metric_is_a_regression(self):
        (d,) = compare_metrics("b", {"m": 3.0}, {})
        assert d.failed and d.actual is None


def make_baseline(tmp_path, benchmarks):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"schema": 1, "benchmarks": benchmarks}))
    return str(path)


class TestRunRegression:
    def test_skips_benchmarks_without_output(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        write_bench_json(str(out), "present", {"m": 1.0})
        baseline = make_baseline(
            tmp_path,
            {"present": {"metrics": {"m": 1.0}}, "absent": {"metrics": {"m": 2.0}}},
        )
        deviations, skipped = run_regression(baseline, str(out))
        assert [d.benchmark for d in deviations] == ["present"]
        assert skipped == ["absent"]

    def test_required_benchmark_must_exist(self, tmp_path):
        baseline = make_baseline(tmp_path, {"absent": {"metrics": {"m": 2.0}}})
        with pytest.raises(FileNotFoundError):
            run_regression(baseline, str(tmp_path), require=["absent"])

    def test_require_is_a_glob_over_baseline_names(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        write_bench_json(str(out), "a_quick", {"m": 1.0})
        benchmarks = {name: {"metrics": {"m": 1.0}} for name in ("a", "a_quick", "b_quick")}
        baseline = make_baseline(tmp_path, benchmarks)
        with pytest.raises(FileNotFoundError, match="b_quick"):
            run_regression(baseline, str(out), require=["*_quick"])
        write_bench_json(str(out), "b_quick", {"m": 1.0})
        deviations, skipped = run_regression(baseline, str(out), require=["*_quick"])
        assert len(deviations) == 2 and skipped == ["a"]

    def test_require_matching_nothing_is_an_error(self, tmp_path):
        baseline = make_baseline(tmp_path, {"b": {"metrics": {"m": 2.0}}})
        with pytest.raises(ValueError):
            run_regression(baseline, str(tmp_path), require=["*_quick"])


class TestCli:
    def test_exit_0_on_match(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        write_bench_json(str(out), "b", {"m": 10.0})
        baseline = make_baseline(tmp_path, {"b": {"metrics": {"m": 10.0}}})
        assert main(["--baseline", baseline, "--out", str(out)]) == 0
        assert "[ok  ] b" in capsys.readouterr().out

    def test_exit_1_on_regression(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        write_bench_json(str(out), "b", {"m": 5.0})
        baseline = make_baseline(tmp_path, {"b": {"metrics": {"m": 10.0}}})
        assert main(["--baseline", baseline, "--out", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_one_part_in_a_billion_is_a_regression(self, tmp_path):
        """The simulator is deterministic per seed: any drift is a change."""
        out = tmp_path / "out"
        out.mkdir()
        write_bench_json(str(out), "b", {"m": 10.0 * (1 + 1e-9)})
        baseline = make_baseline(tmp_path, {"b": {"metrics": {"m": 10.0}}})
        assert main(["--baseline", baseline, "--out", str(out)]) == 1

    def test_exit_2_when_nothing_compared(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        baseline = make_baseline(tmp_path, {"b": {"metrics": {"m": 10.0}}})
        assert main(["--baseline", baseline, "--out", str(out)]) == 2

    def test_exit_2_on_missing_baseline(self, tmp_path):
        assert main(["--baseline", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_exit_2_on_missing_required(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        baseline = make_baseline(tmp_path, {"b": {"metrics": {"m": 10.0}}})
        assert main(["--baseline", baseline, "--out", str(out), "--require", "b"]) == 2


def declared_outputs() -> set:
    """Every output name the benchmark suite's Figures write, full and quick.

    Imports each ``benchmarks/test_*.py`` (under a private module name,
    so none shadows a tier-1 test module); nothing is simulated.
    """
    names = set()
    for path in sorted(BENCH_DIR.glob("test_*.py")):
        spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for fig in vars(module).values():
            if isinstance(fig, benchlib.Figure):
                names.add(fig.name)
                if fig.quick is not None:
                    names.add(f"{fig.name}_quick")
    return names


class TestCheckedInBaseline:
    """The repository baseline itself must stay well-formed and complete."""

    def test_baseline_parses_and_names_quick_entries(self):
        baseline = load_baseline(str(BENCH_DIR / "baseline.json"))
        names = set(baseline["benchmarks"])
        # Full-scale and CI quick-scale entries for each gated figure.
        for fig in ("fig16_tx_loss", "fig17_rx_loss", "fig19_scalability"):
            assert fig in names and f"{fig}_quick" in names
        for entry in baseline["benchmarks"].values():
            assert set(entry) == {"metrics"}, "exact gate: no tolerance fields"
            assert entry["metrics"], "baseline entries carry expected metrics"
            assert all(isinstance(v, (int, float)) for v in entry["metrics"].values())

    def test_one_entry_per_figure_output(self):
        baseline = load_baseline(str(BENCH_DIR / "baseline.json"))
        declared = declared_outputs()
        assert len(declared) > 30
        assert set(baseline["benchmarks"]) == declared


def toy_point(x):
    return {"third": x / 3, "square": x * x}


TOY = benchlib.Figure(
    "toy",
    (1, 2),
    toy_point,
    lambda grid: {f"p{x}.third": r["third"] for x, r in grid.items()},
    lambda m, grid: "\n".join(f"{k} {v!r}" for k, v in m.items()),
    lambda grid: None,
    quick=(3,),
    meta=lambda grid: {"points": list(grid)},
)


class TestFigureDriver:
    def test_workers_write_byte_identical_outputs(self, tmp_path):
        for workers in (1, 2):
            benchlib.run_figure(TOY, quick=False, workers=workers, out_dir=str(tmp_path / str(workers)))
        for ext in ("txt", "json"):
            serial = (tmp_path / "1" / f"toy.{ext}").read_bytes()
            assert serial == (tmp_path / "2" / f"toy.{ext}").read_bytes()
        record = load_bench_json(str(tmp_path / "1" / "toy.json"))
        assert record["metrics"] == {"p1.third": 1 / 3, "p2.third": 2 / 3}
        assert record["meta"] == {"points": [1, 2]}

    def test_quick_runs_the_quick_grid_under_its_own_name(self, tmp_path):
        benchlib.run_figure(TOY, quick=True, workers=1, out_dir=str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toy_quick.json", "toy_quick.txt"]
        assert (tmp_path / "toy_quick.txt").read_text() == "p3.third 1.0\n"
