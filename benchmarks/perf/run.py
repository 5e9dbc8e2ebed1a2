"""The repo benchmark: whole-run host-time metrics and a per-layer trace.

Usage (from the repository root)::

    python benchmarks/perf/run.py                       # all workloads, both halves
    python benchmarks/perf/run.py --workload NAME --seed N --seconds 8 --trace 0|1
    python benchmarks/perf/run.py --aa                  # two sets of the same code
    python benchmarks/perf/run.py --crosscheck NAME     # tracer shares beside cProfile's
    python benchmarks/perf/run.py --quick               # smoke sizes (the test uses this)

Every rep runs in a fresh subprocess (`child.py`); reps go round-robin
across the selected workloads so a minutes-long slow episode of the host
lands on all of them alike, and every number reported is a median over
reps.  End-to-end metrics come from untraced reps only; one extra traced
rep a workload gives the per-layer numbers (``--trace 1``).  Names, units,
directions and bounds are read from ``BENCHMARK.json`` — this file prints
exactly the metrics declared there.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; with several
workloads ``metrics`` maps each workload name to its metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

#: A rep that has not finished by then is killed and counted as failed
#: (the slowest healthy rep takes ~10 s traced); short enough that two
#: hung reps still leave an invocation inside the driver's 180 s.
REP_TIMEOUT_S = 60
#: A rep lost to the machine (not started, or killed by a signal that was
#: not ours) is started again this many times before it counts as failed.
LOST_REP_RETRIES = 2
#: Layers whose self time is reported; `other` is time in none of them.
LAYERS = (
    "sim", "net", "tcp", "nic", "core", "l5p", "crypto", "cpu", "obs",
    "storage", "apps", "faults", "exec", "experiments", "analysis",
)  # fmt: skip
#: A tracer share this far from cProfile's means a boundary is missed.
CROSSCHECK_POINTS = 6.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# running reps
# ----------------------------------------------------------------------
def spawn_rep(cmd: list, workload: str) -> tuple:
    """Run one child in its own process group; returns ``(report, lost)``.

    ``lost`` marks a rep the machine took rather than the program: the
    process could not be started, or a signal that was not ours killed it.
    """
    try:
        proc = subprocess.Popen(
            cmd + ["--spawned-at", repr(time.monotonic())],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            errors="replace",
            start_new_session=True,
        )
    except OSError as exc:
        return {"workload": workload, "error": f"could not start the rep: {exc}"}, True
    timed_out = False
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out, out, err = True, "", f"rep exceeded {REP_TIMEOUT_S} s"
    finally:
        # The rep's process group: the child itself on a timeout, and any
        # pool worker it left behind.  Nothing outlives the rep.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass  # the group is already gone
        proc.wait()
    lines = out.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        report = {}
    if not isinstance(report, dict):
        report = {}
    if "error" not in report and ("digest" not in report or proc.returncode != 0):
        report = {"workload": workload, "error": f"exit {proc.returncode}: {err.strip()[-2000:]}"}
        return report, proc.returncode < 0 and not timed_out
    return report, False


def run_child(workload: str, seed: int, quick: bool, trace: bool = False, profile: bool = False) -> dict:
    """One rep in a fresh process; returns its report (or an error).

    A lost rep (see `spawn_rep`) is started again, `LOST_REP_RETRIES` times
    at most, and every loss is reported on stderr; a rep that ran and
    failed is never repeated.
    """
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    if trace:
        cmd += ["--trace-file", os.path.join(OUT_DIR, f"trace_{workload}.json")]
    if profile:
        cmd.append("--profile")
    for attempt in range(1 + LOST_REP_RETRIES):
        report, lost = spawn_rep(cmd, workload)
        if not lost:
            break
        print(f"LOST {workload} rep, attempt {attempt + 1}: {report['error'].strip()[-300:]}", file=sys.stderr)
        time.sleep(1.0)
    return report


class Runs:
    """The reps of one workload in one set."""

    def __init__(self, name: str):
        self.name = name
        self.timed: list = []  # untraced reps, in order
        self.traced = None
        self.reference = None  # rep of the workload's reference, if it has one

    def measured_s(self) -> float:
        return sum(r.get("wall_s", 0.0) for r in self.timed)

    def failures(self) -> list:
        """(rep label, reason) for every rep that does not count as good."""
        bad = []
        good = [r for r in self.timed if "error" not in r]
        expected = Counter(r["digest"] for r in good).most_common(1)[0][0] if good else None
        if self.reference is not None and "error" not in self.reference:
            expected = self.reference["digest"]
        labelled = [(f"rep{i + 1}", r) for i, r in enumerate(self.timed)]
        labelled += [(label, r) for label, r in (("traced", self.traced), ("reference", self.reference)) if r]
        for label, rep in labelled:
            if "error" in rep:
                bad.append((label, rep["error"].strip().splitlines()[-1]))
            elif rep["failures"]:
                bad.append((label, "; ".join(rep["failures"])))
            elif rep["digest"] != expected:
                bad.append((label, f"digest {rep['digest'][:12]} differs from {str(expected)[:12]}"))
        return bad

    def good_timed(self) -> list:
        bad = {label for label, _ in self.failures()}
        return [r for i, r in enumerate(self.timed) if f"rep{i + 1}" not in bad]


def run_set(names: list, seed: int, reps: int, seconds: float, quick: bool, trace: bool) -> dict:
    """Round-robin reps of every workload: rep 1 of each, then rep 2, ...

    Each workload gets at least ``reps`` untraced reps and keeps going (to
    at most twice that) until its measured windows add up to ``seconds``.
    """
    import workloads  # benchmarks/perf/workloads.py; imports nothing from repro

    runs = {name: Runs(name) for name in names}
    for name in names:
        reference = workloads.WORKLOADS[name].reference
        if reference is not None:
            runs[name].reference = run_child(reference, seed, quick)
    for round_no in range(2 * reps):
        for name in names:
            mine = runs[name]
            if round_no >= reps and mine.measured_s() >= seconds:
                continue
            mine.timed.append(run_child(name, seed, quick))
    if trace:
        for name in names:
            runs[name].traced = run_child(name, seed, quick, trace=True)
    return runs


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def median_of(reps: list, key: str) -> float:
    return statistics.median(r[key] for r in reps)


def end_to_end(runs: Runs) -> dict:
    """Medians over the good untraced reps."""
    good = runs.good_timed()
    return {
        "wall_s": median_of(good, "wall_s"),
        "sim_ms_per_s": statistics.median(1e3 * r["sim_s"] / r["wall_s"] for r in good),
        "peak_rss_mb": median_of(good, "peak_rss_mb"),
        "setup_s": median_of(good, "setup_s"),
    }


def calibrate() -> float:
    """Seconds for a fixed pure-Python spin; for reading numbers across
    machines only — dividing by it did not reduce run-to-run drift."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i & 7
    return time.perf_counter() - start


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(runs: Runs) -> dict:
    """Every per-layer metric of one workload, from its traced rep, with
    rates taken against the untraced median window."""
    good = runs.good_timed()
    traced = runs.traced
    wall = median_of(good, "wall_s")
    walls = [r["wall_s"] for r in good]
    out: dict = {}

    # Shares are of the traced window less the tracer's own calibrated
    # cost, i.e. an estimate of the untraced split.
    spans = traced["layers"]
    window = traced["wall_s"] - spans["overhead_s"]
    covered = 0.0
    for layer in LAYERS:
        self_s = spans["self_s"].get(layer, 0.0)
        covered += self_s
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = ratio(self_s, window)
        out[f"{layer}.calls"] = spans["calls"].get(layer, 0)
    out["other.self_s"] = window - covered
    out["other.share"] = ratio(window - covered, window)

    counts = traced["counts"]
    events = traced["events"]
    out["sim.events"] = events
    out["sim.events_per_s"] = ratio(events, wall)
    out["sim.us_per_event"] = ratio(wall * 1e6, events)
    for name in (
        "net.pkts", "net.bytes", "net.dropped", "net.reordered",
        "tcp.conns", "tcp.bytes_sent", "tcp.bytes_received",
        "nic.pkts_offloaded", "nic.pkts_bypassed", "nic.cache_hits", "nic.cache_misses",
        "nic.pcie_bytes", "nic.pcie_recovery_bytes",
        "core.resync_requests", "core.resyncs_completed", "core.resync_failures",
        "core.tx_recoveries", "core.tx_recovery_bytes", "core.tx_sw_fallbacks",
        "l5p.records_full", "l5p.records_partial", "l5p.records_none", "l5p.auth_failures",
        "cpu.cycles_total", "cpu.cycles_crypto", "cpu.cycles_copy", "cpu.cycles_stack",
        "faults.nic_resets", "faults.detected_errors", "faults.mismatches",
        "exec.workers", "exec.pool_bypassed",
    ):  # fmt: skip
        out[name] = counts.get(name, 0)
    out["net.pkts_per_s"] = ratio(out["net.pkts"], wall)
    out["nic.offload_ratio"] = ratio(out["nic.pkts_offloaded"], out["nic.pkts_offloaded"] + out["nic.pkts_bypassed"])
    out["nic.cache_miss_ratio"] = ratio(out["nic.cache_misses"], out["nic.cache_hits"] + out["nic.cache_misses"])
    records = out["l5p.records_full"] + out["l5p.records_partial"] + out["l5p.records_none"]
    out["l5p.full_ratio"] = ratio(out["l5p.records_full"], records)
    out["exec.speedup"] = ratio(runs.reference["wall_s"], wall) if runs.reference else 0.0
    out["exec.children_cpu_s"] = median_of(good, "children_cpu_s")

    out["harness.cpu_s"] = median_of(good, "cpu_s")
    quartiles = statistics.quantiles(walls, n=4) if len(walls) >= 2 else [wall, wall, wall]
    out["harness.wall_iqr_s"] = quartiles[2] - quartiles[0]
    out["harness.calib_s"] = calibrate()
    out["trace.overhead_ratio"] = ratio(traced["wall_s"], wall)
    out["trace.coverage"] = 1.0 - out["other.share"]
    out["trace.digest_match"] = int(all(r["digest"] == traced["digest"] for r in good))
    # The first 48 bits of the sha-256, exact as a JSON number: changes
    # with --seed and with any model change, repeats for the same seed.
    out["sim.digest"] = int(traced["digest"][:12], 16)
    return out


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def with_units(values: dict, declared: list, workload: str) -> dict:
    """Attach units; the metric set must be exactly the declared one."""
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        missing, extra = sorted(set(names) - set(values)), sorted(set(values) - set(names))
        raise SystemExit(f"{workload}: metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def print_metrics(workload: str, metrics: dict, declared: list) -> None:
    for spec in declared:
        entry = metrics[spec["name"]]
        bound = f"  bound {spec['bound']:.0%}" if "bound" in spec else ""
        value = entry["value"]
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"{workload:20s} {spec['name']:26s} {shown:>16s} {entry['unit']:10s} {spec['better']}{bound}")


def report(runs_by_name: dict, spec: dict, want_e2e: bool, want_layers: bool) -> dict:
    """Print every metric and build the result object."""
    attempted = failed = 0
    metrics: dict = {}
    for name, runs in runs_by_name.items():
        reps = runs.timed + [r for r in (runs.traced, runs.reference) if r]
        attempted += len(reps)
        bad = runs.failures()
        failed += len(bad)
        for label, reason in bad:
            print(f"FAILED {name} {label}: {reason}", file=sys.stderr)
        if not runs.good_timed() or (want_layers and (runs.traced is None or "error" in runs.traced)):
            raise SystemExit(f"{name}: no usable rep; nothing to report")
        mine: dict = {}
        if want_e2e:
            mine.update(with_units(end_to_end(runs), spec["end_to_end"], name))
            print_metrics(name, mine, spec["end_to_end"])
        if want_layers:
            if runs.traced["counts_missing"]:
                print(f"WARNING {name}: counters not found, reported as 0: {runs.traced['counts_missing']}", file=sys.stderr)
            layers = with_units(per_layer(runs), spec["per_layer"], name)
            print_metrics(name, layers, spec["per_layer"])
            mine.update(layers)
        print(f"{name:20s} reps {len(runs.timed)} timed, failed {len(bad)}/{len(reps)}")
        metrics[name] = mine
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def aa(names: list, args, spec: dict) -> int:
    """Two sets of the same code: the benchmark's own noise floor."""
    sets = [run_set(names, args.seed, args.reps, args.seconds, args.quick, trace=False) for _ in range(2)]
    worst = 0
    print(f"{'workload':20s} {'metric':14s} {'set A':>12s} {'set B':>12s} {'diff':>8s} {'bound':>7s}")
    for name in names:
        first, second = (end_to_end(s[name]) for s in sets)
        fails = sum(len(s[name].failures()) for s in sets)
        for metric in spec["end_to_end"]:
            a, b = first[metric["name"]], second[metric["name"]]
            diff = abs(b - a) / a
            over = diff > metric["bound"]
            worst |= over
            flag = "  EXCEEDED" if over else ""
            print(f"{name:20s} {metric['name']:14s} {a:12.4f} {b:12.4f} {diff:8.2%} {metric['bound']:7.0%}{flag}")
        if fails:
            worst = 1
            print(f"{name:20s} {fails} failed rep(s) across the two sets")
    return int(worst)


def crosscheck(name: str, args) -> int:
    """Tracer shares beside cProfile's; a gap means a missed boundary."""
    traced = run_child(name, args.seed, args.quick, trace=True)
    profiled = run_child(name, args.seed, args.quick, profile=True)
    for rep in (traced, profiled):
        if "error" in rep:
            raise SystemExit(f"{name}: {rep['error']}")
    window = traced["wall_s"] - traced["layers"]["overhead_s"]
    shares = {layer: ratio(s, window) for layer, s in traced["layers"]["self_s"].items()}
    shares["other"] = 1.0 - sum(v for k, v in shares.items() if k != "other")
    profile = profiled["profile_shares"]
    worst = 0.0
    print(f"{name}: tracer wrapped {traced['wrapped']} callables")
    print(f"{'layer':12s} {'tracer':>8s} {'cProfile':>9s} {'gap (points)':>13s}")
    for layer in sorted(set(shares) | set(profile), key=lambda k: -profile.get(k, 0.0)):
        t, p = 100 * shares.get(layer, 0.0), 100 * profile.get(layer, 0.0)
        if max(t, p) < 0.05:
            continue
        worst = max(worst, abs(t - p))
        print(f"{layer:12s} {t:8.1f} {p:9.1f} {t - p:+13.1f}")
    print(f"largest gap {worst:.1f} points (limit {CROSSCHECK_POINTS:.0f})")
    return int(worst > CROSSCHECK_POINTS)


def main(argv=None) -> int:
    spec = load_spec()
    public = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=public, help="default: all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="host seconds of measured window per workload")  # fmt: skip
    parser.add_argument("--reps", type=int, default=5, help="fewest untraced reps per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="0: end-to-end only, 1: per-layer only")
    parser.add_argument("--quick", action="store_true", help="smoke sizes, one rep")
    parser.add_argument("--aa", action="store_true", help="run two sets and compare them to the bounds")
    parser.add_argument("--crosscheck", choices=public, help="compare the tracer with cProfile")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no simulator to measure: {os.path.join(ROOT, 'src', 'repro')} is missing", file=sys.stderr)
        return 2
    names = args.workload or public
    if args.quick:
        args.reps, args.seconds = 1, 0.0
    if args.crosscheck:
        return crosscheck(args.crosscheck, args)
    if args.aa:
        return aa(names, args, spec)

    want_e2e, want_layers = args.trace in (None, 0), args.trace in (None, 1)
    if args.trace == 1:
        # The traced half needs untraced reps only as the reference for
        # overhead, rates and the digest; three bound its cost.
        args.reps, args.seconds = min(args.reps, 3), 0.0
    runs = run_set(names, args.seed, args.reps, args.seconds, args.quick, trace=want_layers)
    result = report(runs, spec, want_e2e, want_layers)
    try:  # per-rep detail, for a reader; the result does not depend on it
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, "result.json"), "w") as fh:
            detail = {"seed": args.seed, "runs": {n: vars(r) for n, r in runs.items()}, "result": result}
            json.dump(detail, fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        print(f"WARNING could not write {OUT_DIR}/result.json: {exc}", file=sys.stderr)
    if len(names) == 1:
        result["metrics"] = result["metrics"][names[0]]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
