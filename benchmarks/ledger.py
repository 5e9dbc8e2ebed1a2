"""The perf ledger: ``BENCH_e2e.json``, one appended row per measured side.

The repo benchmark (``BENCHMARK.json``, ``benchmarks/perf/run.py``) writes
the detail of its last invocation to ``benchmarks/perf/out/result.json``.
This tool only *reads* such files — it never runs or touches the
benchmark — and does two things with them::

    python benchmarks/ledger.py check [result.json]
        exit 1 unless every rep ran clean and every traced rep simulated
        exactly what the untraced reps did (the CI perf gate)

    python benchmarks/ledger.py append --pr 17 --side change --rev REV RESULT.json...
        fold the given invocations (one per seed and workload, or whole
        runs) into one ledger row: per workload and end-to-end metric the
        median, inter-quartile range and count over the invocations plus
        each invocation's value in seed order, the per-layer shares of
        the traced reps, and ``src/repro`` lines per package

A performance PR appends two rows, its parent's and its own, measured
with the same benchmark code (ten alternating pairs; see
``docs/performance.md``).  Rows are never edited afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LEDGER = os.path.join(ROOT, "BENCH_e2e.json")
LAST_RESULT = os.path.join(HERE, "perf", "out", "result.json")


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def declared() -> tuple:
    """Workload, end-to-end metric and layer names, from BENCHMARK.json."""
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    layers = [m["name"][: -len(".share")] for m in spec["per_layer"] if m["name"].endswith(".share")]
    return [w["name"] for w in spec["workloads"]], [m["name"] for m in spec["end_to_end"]], layers


def check(path: str) -> int:
    result = load(path)["result"]
    mismatched = sorted(
        name
        for name, metrics in result["metrics"].items()
        if "trace.digest_match" in metrics and metrics["trace.digest_match"]["value"] != 1
    )
    if result["failed"] or not result["correct"] or mismatched:
        print(f"repo benchmark: {result['failed']} of {result['attempted']} reps failed; digest mismatch on {mismatched}")
        return 1
    print(f"repo benchmark: 0 of {result['attempted']} reps failed on {len(result['metrics'])} workloads, digests match")
    return 0


def loc_by_package(src: str) -> dict:
    """Physical lines of ``*.py`` under each sub-package of ``src``."""
    loc: dict = {}
    for folder, _dirs, files in os.walk(src):
        rel = os.path.relpath(folder, src)
        package = "(top level)" if rel == "." else rel.split(os.sep)[0]
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    loc[package] = loc.get(package, 0) + sum(1 for _ in fh)
    loc = dict(sorted(loc.items()))
    loc["total"] = sum(loc.values())
    return loc


def summary(values: list) -> dict:
    values = [round(v, 4) for v in values]  # 0.1 ms, 0.1 KiB: below anything a host resolves
    iqr = None
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        iqr = round(quartiles[2] - quartiles[0], 4)
    return {"median": round(statistics.median(values), 4), "iqr": iqr, "n": len(values), "values": values}


def build_row(args) -> dict:
    workloads, e2e, layers = declared()
    invocations = sorted((load(path) for path in args.results), key=lambda d: d["seed"])
    metrics: dict = {}
    shares: dict = {}
    seeds: set = set()
    failed = attempted = 0
    for detail in invocations:
        seeds.add(detail["seed"])
        failed += detail["result"]["failed"]
        attempted += detail["result"]["attempted"]
        for workload, reported in detail["result"]["metrics"].items():
            for name in e2e:
                if name in reported:
                    metrics.setdefault(workload, {}).setdefault(name, []).append(reported[name]["value"])
            traced = {layer: reported[f"{layer}.share"]["value"] for layer in layers if f"{layer}.share" in reported}
            if traced:
                shares[workload] = {layer: round(share, 4) for layer, share in traced.items() if share}
    return {
        "pr": args.pr,
        "side": args.side,
        "rev": args.rev or head_rev(),
        "note": args.note,
        "seeds": sorted(seeds),
        "failed": failed,
        "attempted": attempted,
        "metrics": {w: {m: summary(metrics[w][m]) for m in e2e if m in metrics[w]} for w in workloads if w in metrics},
        "layer_shares": {w: shares[w] for w in workloads if w in shares},
        "loc": loc_by_package(args.src),
    }


def dumps(ledger: dict) -> str:
    """Indented JSON with every innermost array and object on one line,
    so a row reads as a table: one line per workload and metric."""
    text = json.dumps(ledger, indent=1)
    for innermost in (r"\[[^\[\]{}]*\]", r"\{[^{}]*\}"):
        text = re.sub(innermost, lambda m: re.sub(r"\s+", " ", m.group(0)), text)
    return text + "\n"


def append(args) -> int:
    ledger = load(LEDGER)
    ledger["rows"].append(build_row(args))
    with open(LEDGER, "w") as fh:
        fh.write(dumps(ledger))
    row = ledger["rows"][-1]
    print(f"BENCH_e2e.json: row {len(ledger['rows'])} = PR {row['pr']} {row['side']} @ {row['rev']}, "
          f"{len(row['metrics'])} workloads, seeds {row['seeds']}, failed {row['failed']}/{row['attempted']}")  # fmt: skip
    return 0


def head_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    checker = commands.add_parser("check", help="gate on the last benchmark invocation")
    checker.add_argument("result", nargs="?", default=LAST_RESULT)
    adder = commands.add_parser("append", help="append one row to BENCH_e2e.json")
    adder.add_argument("results", nargs="*", default=[LAST_RESULT], help="result.json files (default: the last run)")
    adder.add_argument("--pr", type=int, required=True)
    adder.add_argument("--side", choices=("parent", "change"), required=True)
    adder.add_argument("--rev", help="git revision measured (default: HEAD)")
    adder.add_argument("--src", default=os.path.join(ROOT, "src", "repro"), help="tree whose lines are counted")
    adder.add_argument("--note", default="")
    args = parser.parse_args(argv)
    return check(args.result) if args.command == "check" else append(args)


if __name__ == "__main__":
    sys.exit(main())
