"""One rep of one workload, in a process of its own.

`run.py` starts this file once per rep so that every rep pays the same
imports, starts from the same (empty) heap — in-process repetition grows
RSS from 145 MB to 606 MB over five ``run_iperf`` calls — and reports its
own ``ru_maxrss``.  The rep's report is one JSON object on the last line
of stdout.

The child finds the measured window from outside the simulator: it hooks
``Simulator.run`` and takes the *last* top-level call the scenario makes
(the post-warm-up window of every experiment in `repro.experiments`),
unless the workload marks a wider window itself (`recorder.window()`).
Set-up is everything from the moment `run.py` spawned the process
(``--spawned-at``, a CLOCK_MONOTONIC reading shared across processes) to
the start of that window.
"""

from __future__ import annotations

import argparse
import cProfile
import contextlib
import dataclasses
import hashlib
import json
import os
import pstats
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


class WindowRecorder:
    """Times candidate windows; the last one recorded is the measured one.

    With a tracer it also notes which spans fall inside each window, and
    with ``profile=True`` it runs each window under its own `cProfile`.
    """

    def __init__(self, snapshot, tracer=None, profile: bool = False):
        self.snapshot = snapshot  # sim -> cumulative counters, read at window start
        self.tracer = tracer
        self.profile = profile
        self.records: list = []
        self._depth = 0

    def hook_simulator(self) -> None:
        """Make every top-level ``Simulator.run`` call a candidate window."""
        from repro.sim import Simulator

        inner = Simulator.run
        recorder = self

        def run(sim, *args, **kwargs):
            if recorder._depth:
                return inner(sim, *args, **kwargs)
            with recorder.window(sim=sim):
                return inner(sim, *args, **kwargs)

        Simulator.run = run

    @contextlib.contextmanager
    def window(self, sim=None, sim_s: float = 0.0):
        record = {"sim": sim, "before": self.snapshot(sim)}
        now0 = sim.now if sim is not None else 0.0
        events0 = sim.events_fired if sim is not None else 0
        profiler = cProfile.Profile() if self.profile else None
        self._depth += 1
        record["span_first"] = self.tracer.span_count() if self.tracer else 0
        cpu0 = time.process_time()
        record["start"] = time.monotonic()
        wall0 = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            yield record
        finally:
            if profiler is not None:
                profiler.disable()
            record["wall_s"] = time.perf_counter() - wall0
            record["cpu_s"] = time.process_time() - cpu0
            record["span_last"] = self.tracer.span_count() if self.tracer else 0
            self._depth -= 1
            record["sim_s"] = (sim.now - now0) if sim is not None else sim_s
            record["events"] = (sim.events_fired - events0) if sim is not None else 0
            record["profile"] = profiler
            self.records.append(record)


def capture_instances(cls) -> list:
    """Every instance of ``cls`` constructed from now on, in order."""
    seen: list = []
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        seen.append(self)
        init(self, *args, **kwargs)

    cls.__init__ = __init__
    return seen


def _net_counts(tb, hosts, sockets) -> dict:
    wire = [tb.link.ab.counters(), tb.link.ba.counters()]
    return {
        "net.pkts": sum(c["sent"] for c in wire),
        "net.bytes": sum(c["sent_bytes"] for c in wire),
        "net.dropped": sum(c["dropped"] for c in wire),
        "net.reordered": sum(c["reordered"] for c in wire),
    }


def _tcp_counts(tb, hosts, sockets) -> dict:
    conns = [c for h in hosts for c in h.tcp.connections.values()]
    return {
        "tcp.conns": len(conns),
        "tcp.bytes_sent": sum(c.bytes_sent for c in conns),
        "tcp.bytes_received": sum(c.bytes_received for c in conns),
    }


def _offload_counts(tb, hosts, sockets) -> dict:
    offload = [h.nic.offload_stats() for h in hosts]
    keys = {
        "nic.pkts_offloaded": "pkts_offloaded",
        "nic.pkts_bypassed": "pkts_bypassed",
        "core.resync_requests": "resync_requests",
        "core.resyncs_completed": "resyncs_completed",
        "core.resync_failures": "resync_failures",
        "core.tx_recoveries": "tx_recoveries",
        "core.tx_recovery_bytes": "tx_recovery_bytes",
        "core.tx_sw_fallbacks": "tx_sw_fallbacks",
    }
    return {metric: sum(s[key] for s in offload) for metric, key in keys.items()}


def _nic_counts(tb, hosts, sockets) -> dict:
    return {
        "nic.cache_hits": sum(h.nic.cache.hits for h in hosts),
        "nic.cache_misses": sum(h.nic.cache.misses for h in hosts),
        "nic.pcie_bytes": sum(h.nic.pcie.total_bytes() for h in hosts),
        "nic.pcie_recovery_bytes": sum(h.nic.pcie.bytes_by_category.get("recovery", 0) for h in hosts),
    }


def _cpu_counts(tb, hosts, sockets) -> dict:
    cycles: dict = {}
    for host in hosts:
        for category, value in host.cpu.cycles_by_category().items():
            cycles[category] = cycles.get(category, 0.0) + value
    out = {f"cpu.cycles_{category}": cycles.get(category, 0.0) for category in ("crypto", "copy", "stack")}
    out["cpu.cycles_total"] = sum(cycles.values())
    return out


def _l5p_counts(tb, hosts, sockets) -> dict:
    stats = [s.stats for s in sockets if s.host in hosts]
    return {
        "l5p.records_full": sum(s.records_rx_full for s in stats),
        "l5p.records_partial": sum(s.records_rx_partial for s in stats),
        "l5p.records_none": sum(s.records_rx_none for s in stats),
        "l5p.auth_failures": sum(s.auth_failures for s in stats),
    }


COUNT_GROUPS = (_net_counts, _tcp_counts, _offload_counts, _nic_counts, _cpu_counts, _l5p_counts)


def testbed_counts(testbeds: list, sockets: list, sim, missing: set) -> dict:
    """Cumulative counters of the testbed that owns ``sim`` (both hosts
    summed), read from the public statistics the components already
    keep.  All but ``tcp.conns`` are monotone, so a window's share is end
    minus start.  These are diagnostics read by attribute name: a group
    whose names a later refactor moved is noted in ``missing`` and left
    out rather than failing the rep, because that refactor may not edit
    this file."""
    tb = next((t for t in reversed(testbeds) if getattr(t, "sim", None) is sim), None)
    if tb is None:
        return {}
    out: dict = {}
    for group in COUNT_GROUPS:
        try:
            out.update(group(tb, (tb.server, tb.generator), sockets))
        except (AttributeError, KeyError, TypeError):
            missing.add(group.__name__.strip("_"))
    return out


def plain(obj):
    """The result object as JSON-ready data (dataclasses become dicts)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, (list, tuple)):
        return [plain(item) for item in obj]
    return obj


def digest_of(result, events: int, sim_s: float) -> str:
    """sha-256 over everything simulated: the result and the event count."""
    doc = {"result": plain(result), "events": events, "sim_s": sim_s}
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=repr).encode()).hexdigest()


def profile_shares(profiler, layers: list) -> dict:
    """cProfile ``tottime`` by `repro` package, as shares of the total.

    Time in a function outside `repro` (stdlib, builtins) is charged to
    the package that called it — through as many non-`repro` frames as
    it takes — which is the rule the tracer applies, so the two tables
    are comparable.
    """
    stats = pstats.Stats(profiler).stats  # func -> (cc, nc, tt, ct, callers)
    marker = os.sep + "repro" + os.sep

    def package(func):
        at = func[0].rfind(marker)
        if at < 0:
            return None
        name = func[0][at + len(marker) :].split(os.sep, 1)[0]
        return name if name in layers else None

    payers: dict = {}

    def payer(func) -> dict:
        """Package -> weight (summing to 1) charged for time under ``func``."""
        if func in payers:
            return payers[func]
        own = package(func)
        if own is not None:
            payers[func] = {own: 1.0}
            return payers[func]
        payers[func] = {"other": 1.0}  # cycle guard while recursing
        callers = stats[func][4] if func in stats else {}
        total = sum(cost[3] for cost in callers.values())
        if total > 0:
            mix: dict = {}
            for caller, cost in callers.items():
                for pkg, weight in payer(caller).items():
                    mix[pkg] = mix.get(pkg, 0.0) + weight * cost[3] / total
            payers[func] = mix
        return payers[func]

    by_package: dict = {}
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for pkg, weight in payer(func).items():
            by_package[pkg] = by_package.get(pkg, 0.0) + weight * tottime
    total = sum(by_package.values()) or 1.0
    return {pkg: value / total for pkg, value in sorted(by_package.items())}


def run_rep(args) -> dict:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    from trace import Tracer  # benchmarks/perf/trace.py (HERE is first on the path)

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace_file:
        tracer = Tracer()
        tracer.install()

    from repro.harness.testbed import Testbed
    from repro.l5p.tls.ktls import KtlsSocket

    testbeds = capture_instances(Testbed)
    sockets = capture_instances(KtlsSocket)
    missing: set = set()
    recorder = WindowRecorder(
        lambda sim: testbed_counts(testbeds, sockets, sim, missing), tracer, profile=args.profile
    )
    recorder.hook_simulator()

    result = workload.run(args.seed, args.quick, recorder)
    if tracer is not None:
        tracer.uninstall()
    if not recorder.records:
        raise RuntimeError(f"{workload.name}: the scenario never opened a measured window")
    window = recorder.records[-1]

    after = testbed_counts(testbeds, sockets, window["sim"], missing)
    counts = {k: after[k] - window["before"].get(k, 0) for k in after if k != "tcp.conns"}
    if "tcp.conns" in after:
        counts["tcp.conns"] = after["tcp.conns"]
    if workload.counts is not None:
        counts.update(workload.counts(result))

    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "wall_s": window["wall_s"],
        "cpu_s": window["cpu_s"],
        "sim_s": window["sim_s"],
        "events": window["events"],
        "setup_s": window["start"] - args.spawned_at,
        # ru_maxrss is KiB on Linux; the largest forked worker is added so
        # a grid's memory is the parent's plus one worker's.
        "peak_rss_mb": (own.ru_maxrss + children.ru_maxrss) / 1024.0,
        "children_cpu_s": children.ru_utime + children.ru_stime,
        "digest": digest_of(result, window["events"], window["sim_s"]),
        "failures": workload.check(result, counts),
        "counts": counts,
        "counts_missing": sorted(missing),
    }
    if tracer is not None:
        first, last = window["span_first"], window["span_last"]
        report["layers"] = tracer.aggregate(first, last)
        report["wrapped"] = tracer.wrapped
        meta = {"workload": workload.name, "seed": args.seed, "window_wall_s": window["wall_s"]}
        try:  # the span file is for a reader; the metrics do not depend on it
            os.makedirs(os.path.dirname(os.path.abspath(args.trace_file)), exist_ok=True)
            tracer.write(args.trace_file, first, last, meta)
        except OSError as exc:
            print(f"WARNING could not write {args.trace_file}: {exc}", file=sys.stderr)
    if window["profile"] is not None:
        from trace import discover_layers

        report["profile_shares"] = profile_shares(window["profile"], discover_layers())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-file", default="", help="trace the rep and write its spans here")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=time.monotonic())
    args = parser.parse_args(argv)
    try:
        report = run_rep(args)
    except Exception:  # the rep boundary: report the failure, never hide it
        report = {"workload": args.workload, "error": traceback.format_exc()}
    print(json.dumps(report))
    return 1 if "error" in report else 0


if __name__ == "__main__":
    sys.exit(main())
