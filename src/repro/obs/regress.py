"""Performance-regression gate: diff a benchmark run against a baseline.

    python -m repro.obs.regress \
        --baseline benchmarks/baseline.json \
        --out benchmarks/out --require '*_quick'

The baseline maps benchmark names to their expected flat metrics::

    {
      "schema": 1,
      "benchmarks": {
        "fig16_tx_loss": {"metrics": {"loss0.tcp_gbps": 6.35, ...}}
      }
    }

The simulation is deterministic per seed, so the comparison is exact: a
metric regresses when its value differs from the baseline's at all, or
when the run no longer reports it.  Baseline entries whose run output is
absent are skipped (CI gates run a subset), except those named by a
``--require`` glob; comparing *nothing* is an error, not a pass.

Exit codes: 0 ok, 1 regression, 2 usage/IO/nothing-compared.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from repro.obs.bench import SCHEMA_VERSION, load_bench_json

DEFAULT_BASELINE = os.path.join("benchmarks", "baseline.json")
DEFAULT_OUT_DIR = os.path.join("benchmarks", "out")


@dataclass
class Deviation:
    benchmark: str
    metric: str
    baseline: float
    actual: Optional[float]  # None: the run no longer reports the metric

    @property
    def failed(self) -> bool:
        return self.actual != self.baseline


def load_baseline(path: str) -> dict:
    with open(path) as fh:
        baseline = json.load(fh)
    if baseline.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported baseline schema {baseline.get('schema')!r}")
    if not isinstance(baseline.get("benchmarks"), dict):
        raise ValueError(f"{path}: missing benchmarks mapping")
    return baseline


def compare_metrics(name: str, expected: dict, actual: dict) -> list[Deviation]:
    """Compare one benchmark's metrics; returns every comparison made."""
    return [Deviation(name, metric, base, actual.get(metric)) for metric, base in sorted(expected.items())]


def run_regression(
    baseline_path: str, out_dir: str, require: Optional[list[str]] = None
) -> tuple[list[Deviation], list[str]]:
    """Compare every baseline benchmark with an emitted JSON record.

    Returns ``(deviations, skipped)``.  Each ``require`` entry is a glob
    over baseline names; raises ``ValueError`` if one matches none, and
    ``FileNotFoundError`` if a benchmark it matches has no run output.
    """
    names = sorted(load_baseline(baseline_path)["benchmarks"].items())
    for pattern in require or ():
        if not fnmatch.filter((name for name, _ in names), pattern):
            raise ValueError(f"--require {pattern!r} matches no baseline benchmark")
    deviations: list[Deviation] = []
    skipped: list[str] = []
    for name, entry in names:
        out_path = os.path.join(out_dir, f"{name}.json")
        if not os.path.exists(out_path):
            if any(fnmatch.fnmatchcase(name, pattern) for pattern in require or ()):
                raise FileNotFoundError(f"required benchmark {name!r} has no output at {out_path}")
            skipped.append(name)
            continue
        record = load_bench_json(out_path)
        deviations.extend(compare_metrics(name, entry.get("metrics", {}), record["metrics"]))
    return deviations, skipped


def render_report(deviations: list[Deviation], skipped: list[str]) -> str:
    lines = []
    by_bench: dict[str, list[Deviation]] = {}
    for d in deviations:
        by_bench.setdefault(d.benchmark, []).append(d)
    for bench, devs in sorted(by_bench.items()):
        failed = [d for d in devs if d.failed]
        lines.append(f"[{'FAIL' if failed else 'ok':4}] {bench}: {len(devs)} metrics, {len(failed)} differ")
        for d in failed:
            actual = "missing" if d.actual is None else f"{d.actual!r}"
            lines.append(f"       - {d.metric}: baseline={d.baseline!r} actual={actual}")
    for name in skipped:
        lines.append(f"[skip] {name}: no run output")
    lines.append(
        f"{len(deviations)} metrics compared across {len(by_bench)} benchmarks; "
        f"{sum(d.failed for d in deviations)} regressed, {len(skipped)} skipped"
    )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.regress",
        description="Diff benchmark JSON output against the checked-in baseline",
    )
    parser.add_argument("--baseline", default=DEFAULT_BASELINE, help="baseline JSON path")
    parser.add_argument("--out", default=DEFAULT_OUT_DIR, help="directory of emitted <name>.json runs")
    parser.add_argument(
        "--require",
        action="append",
        default=None,
        metavar="GLOB",
        help="baseline benchmarks that must be present in the run output (repeatable glob)",
    )
    args = parser.parse_args(argv)
    try:
        deviations, skipped = run_regression(args.baseline, args.out, args.require)
    except (OSError, ValueError) as exc:
        print(f"regress: {exc}", file=sys.stderr)
        return 2
    print(render_report(deviations, skipped))
    if not deviations:
        print("regress: nothing compared (no run output matched the baseline)", file=sys.stderr)
        return 2
    return 1 if any(d.failed for d in deviations) else 0


if __name__ == "__main__":
    sys.exit(main())
