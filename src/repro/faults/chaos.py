"""Multi-seed chaos soak: TLS and NVMe-TCP under randomized fault mixes.

``python -m repro.faults.chaos`` drives both L5P workloads on the §6
testbed with combined burst-loss, corruption, jitter, and NIC-fault
plans, the runtime invariant sanitizer enabled, and end-to-end content
verification:

- **TLS**: the generator streams fixed-size self-describing chunks (one
  per TLS record); the server verifies every decrypted chunk against the
  pattern derived from its embedded index.  Records dropped after a
  *detected* auth failure appear as index gaps (counted as skips), never
  as mismatches.
- **NVMe-TCP**: the initiator (the DUT) runs a closed loop of reads
  verified against ``BlockDevice.peek`` plus write/read-back pairs in a
  disjoint region; detected digest/framing/status failures are counted
  through the ``on_error`` hook and the loop keeps going.

A run **fails** only on silent corruption (content mismatch) or a
sanitizer invariant violation — detected errors are the expected product
of fault injection.  One deterministic "heavy" scenario (all resync
responses dropped, give-up threshold 1) guarantees the §5.3 auto-disable
path fires and is observable via the ``driver.offload.auto_disabled``
counter.  Identical seeds produce identical summaries.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time  # wall-clock --max-seconds deadline guard (CI wedge detector)
from typing import Optional

from repro.analysis import sanitizer
from repro.faults.plan import (
    DegradePolicy,
    FaultPlan,
    GilbertElliott,
    LinkFaultProfile,
    NicFaultProfile,
    NicLifecycleProfile,
)
from repro.harness.testbed import Testbed, TestbedConfig

CHUNK = 4096  # TLS chunk == record size, so chunk framing survives drops
TLS_CHUNKS = 192
NVME_DEPTH = 8
NVME_READ_SPAN = 4 * 1024 * 1024  # read-only region (device pattern)
NVME_WRITE_BASE = 8 * 1024 * 1024  # write/read-back slots live above

HEAVY_SEED = 999
HEAVY_PLAN = FaultPlan(
    to_server=LinkFaultProfile(
        corrupt=0.002,
        burst=GilbertElliott.for_mean_loss(0.05, burst_len=6),
    ),
    nic=NicFaultProfile(resync_resp_drop=1.0),
    degrade=DegradePolicy(max_resync_retries=1, resync_timeout_s=5e-4, disable_after_failures=1),
)

#: Deterministic reset-storm scenario: repeated NIC hangs land mid-transfer
#: (the TLS chunk stream spans roughly 0.3-1.4 ms of simulated time; the
#: NVMe loop runs continuously), so every storm run exercises the full
#: hang -> watchdog -> reset -> reattach cycle while bursty loss keeps the
#: ordinary resync machinery busy at the same time.  Content verification
#: must stay clean: a reset may only cost performance, never correctness.
RESET_STORM_SEED = 777
RESET_STORM_PLAN = FaultPlan(
    to_server=LinkFaultProfile(burst=GilbertElliott.for_mean_loss(0.005, burst_len=4)),
    degrade=DegradePolicy(max_resync_retries=2, resync_timeout_s=1e-3),
    lifecycle=NicLifecycleProfile(
        hang_windows=((6e-4, 7e-4), (3e-3, 3.2e-3), (8e-3, 8.2e-3)),
    ),
)

#: Trace events kept per failing run for the CI crash-report artifact.
TRACE_TAIL = 50


def chunk_bytes(k: int) -> bytes:
    """Chunk ``k``: an 8-byte index plus an index-derived fill."""
    fill = hashlib.sha256(b"chaos:%d" % k).digest()
    body = (fill * (CHUNK // len(fill) + 1))[: CHUNK - 8]
    return k.to_bytes(8, "big") + body


def random_plan(rng: random.Random) -> FaultPlan:
    """One randomized fault mix (always at least bursty loss)."""
    burst = GilbertElliott.for_mean_loss(
        rng.choice([0.005, 0.01, 0.02, 0.03]), burst_len=rng.choice([4, 6, 8])
    )
    wire = LinkFaultProfile(
        corrupt=rng.choice([0.0, 0.002, 0.005]),
        jitter_s=rng.choice([0.0, 0.0, 20e-6]),
        burst=burst,
    )
    nic = NicFaultProfile(
        cache_evict_prob=rng.choice([0.0, 0.05]),
        pcie_stall_prob=rng.choice([0.0, 0.2]),
        pcie_fail_prob=rng.choice([0.0, 0.2]),
        resync_resp_drop=rng.choice([0.0, 0.25]),
        resync_resp_delay=rng.choice([0.0, 0.25]),
        resync_resp_delay_s=5e-4,
        resync_resp_dup=rng.choice([0.0, 0.2]),
    )
    degrade = DegradePolicy(
        max_resync_retries=2,
        resync_timeout_s=1e-3,
        disable_after_failures=rng.choice([0, 4]),
        probation_s=rng.choice([0.0, 5e-3]),
    )
    return FaultPlan(to_server=wire, nic=nic, degrade=degrade)


def _testbed(seed: int, plan: FaultPlan) -> Testbed:
    # trace=True feeds the crash-report artifact's last-N event tail; the
    # tracer only appends to a list, so metrics and determinism are
    # unchanged (the determinism test compares full summaries).
    return Testbed(
        TestbedConfig(
            seed=seed, server_cores=2, generator_cores=4, faults=plan, metrics=True, trace=True
        )
    )


def _summarize(tb: Testbed, state: dict) -> dict:
    counters = tb.metrics_report()["metrics"]["counters"]
    picked = {
        key: counters.get(name, 0)
        for key, name in (
            ("auto_disabled", "driver.offload.auto_disabled"),
            ("probation_reenabled", "driver.offload.probation_reenabled"),
            ("resync_requests", "driver.resync.requests"),
            ("resync_retries", "driver.resync.retries"),
            ("resync_failures", "driver.resync.failures"),
            ("resync_confirmed", "driver.resync.confirmed"),
            ("resync_resp_dropped", "driver.resync.resp_dropped"),
            ("cache_fault_evictions", "nic.cache.fault_evictions"),
            ("pcie_stalls", "nic.pcie.fault.stalls"),
            ("pcie_read_failures", "nic.pcie.fault.read_failures"),
            ("tx_sw_fallbacks", "nic.tx.sw_fallback_pkts"),
        )
    }
    state.update(picked)
    state["link_to_server"] = tb.link.ba.counters()
    state["sim_events"] = tb.sim.events_fired
    lifecycle = getattr(tb.server.nic, "lifecycle", None)
    if lifecycle is not None and lifecycle.armed:
        state["lifecycle"] = lifecycle.stats()
    if state["mismatches"] or state["sanitizer_violations"]:
        # Failing run: keep the event-trace tail for the crash report.
        tracer = getattr(tb.obs, "tracer", None)
        if tracer is not None:
            state["trace_tail"] = list(tracer.events[-TRACE_TAIL:])
    return state


def run_tls(seed: int, plan: FaultPlan, duration: float, connections: int = 1) -> dict:
    """Generator streams chunks to the DUT's rx-offloaded TLS sockets.

    ``connections`` opens that many concurrent client/server socket
    pairs (each with its own chunk sequence and verifier); the chunk
    budget is split across them, so elevated flow counts stress the
    context cache and flow tables rather than multiplying runtime.
    ``conn_verified`` counts the verified chunks of each accepted
    connection, in accept order.
    """
    from repro.l5p.tls import KtlsSocket, TlsConfig

    tb = _testbed(seed, plan)
    state = {
        "workload": "tls",
        "seed": seed,
        "sent": 0,
        "verified": 0,
        "conn_verified": [],
        "skipped": 0,
        "mismatches": 0,
        "detected_errors": 0,
        "sanitizer_violations": 0,
    }
    chunks_per_conn = TLS_CHUNKS if connections <= 1 else max(8, TLS_CHUNKS // connections)

    def count_error(reason) -> None:
        state["detected_errors"] += 1

    server_sockets = []

    def on_accept(conn) -> None:
        tls = KtlsSocket(tb.server, conn, "server", TlsConfig(rx_offload=True, record_size=CHUNK))
        rx_buf = bytearray()
        last_idx = [-1]
        slot = len(state["conn_verified"])
        state["conn_verified"].append(0)

        def on_data(data: bytes) -> None:
            rx_buf.extend(data)
            while len(rx_buf) >= CHUNK:
                chunk = bytes(rx_buf[:CHUNK])
                del rx_buf[:CHUNK]
                k = int.from_bytes(chunk[:8], "big")
                if k <= last_idx[0] or k >= chunks_per_conn or chunk != chunk_bytes(k):
                    state["mismatches"] += 1
                    continue
                state["skipped"] += k - last_idx[0] - 1
                last_idx[0] = k
                state["verified"] += 1
                state["conn_verified"][slot] += 1

        tls.on_data = on_data
        tls.on_error = count_error
        server_sockets.append(tls)

    tb.server.tcp.listen(443, on_accept)
    for _ in range(connections):
        conn = tb.generator.tcp.connect("server", 443)
        client = KtlsSocket(
            tb.generator, conn, "client", TlsConfig(tx_offload=True, record_size=CHUNK)
        )
        client.on_error = count_error
        sent = [0]

        def feed(client=client, sent=sent) -> None:
            while sent[0] < chunks_per_conn:
                if client.send(chunk_bytes(sent[0])) == 0:
                    return
                sent[0] += 1
                state["sent"] += 1

        client.on_ready = feed
        client.on_writable = feed
    try:
        tb.run(until=duration)
    except sanitizer.InvariantViolation:
        state["sanitizer_violations"] += 1
    if server_sockets:
        state["auth_failures"] = sum(s.stats.auth_failures for s in server_sockets)
        state["offload_degraded"] = max(s.stats.offload_degraded for s in server_sockets)
    return _summarize(tb, state)


def run_nvme(seed: int, plan: FaultPlan, duration: float) -> dict:
    """The DUT runs an NVMe-TCP initiator (CRC + copy offload) against a
    target on the generator; every completion is content-verified."""
    from repro.l5p.nvme_tcp import NvmeConfig, NvmeTcpHost, NvmeTcpTarget
    from repro.storage.blockdev import BlockDevice

    tb = _testbed(seed, plan)
    state = {
        "workload": "nvme",
        "seed": seed,
        "issued": 0,
        "verified": 0,
        "mismatches": 0,
        "detected_errors": 0,
        "sanitizer_violations": 0,
    }
    device = BlockDevice(tb.sim)
    target = NvmeTcpTarget(tb.generator, device, config=NvmeConfig(tx_offload=True))
    target.start()
    initiator = NvmeTcpHost(
        tb.server, config=NvmeConfig(tx_offload=True, rx_offload_crc=True, rx_offload_copy=True)
    )
    io_rng = random.Random(f"chaos:io:{seed}")
    write_slot = [0]

    def issue() -> None:
        state["issued"] += 1
        if io_rng.random() < 0.2:
            slot = write_slot[0]
            write_slot[0] += 1
            offset = NVME_WRITE_BASE + slot * 64 * 1024
            payload = chunk_bytes(slot)[: 16 * 1024]

            def readback(_lat, offset=offset, payload=payload) -> None:
                initiator.read(offset, len(payload), lambda data, _l: verify(data, payload))

            initiator.write(offset, payload, readback)
        else:
            length = io_rng.choice([4096, 8192, 16384, 32768])
            offset = io_rng.randrange(0, NVME_READ_SPAN - length, 4096)
            expect = device.peek(offset, length)
            initiator.read(offset, length, lambda data, _l, e=expect: verify(data, e))

    def verify(data: bytes, expect: bytes) -> None:
        if bytes(data) == expect:
            state["verified"] += 1
        else:
            state["mismatches"] += 1
        issue()

    def on_error(reason: str) -> None:
        state["detected_errors"] += 1
        issue()

    initiator.on_error = on_error
    initiator.connect("generator", on_ready=lambda: [issue() for _ in range(NVME_DEPTH)])
    try:
        tb.run(until=duration)
    except sanitizer.InvariantViolation:
        state["sanitizer_violations"] += 1
    state["digest_failures"] = initiator.stats.digest_failures
    state["io_failures"] = initiator.stats.io_failures
    state["offload_degraded"] = initiator.stats.offload_degraded
    return _summarize(tb, state)


_WORKLOADS = {"tls": run_tls, "nvme": run_nvme}


def chaos_point(
    workload: str = "tls",
    seed: int = 1,
    duration: float = 15e-3,
    heavy: bool = False,
    connections: int = 1,
    storm: bool = False,
) -> dict:
    """One soak point — a pure function of its arguments, so the scenario
    grid can run points in any process in any order (`repro.exec`).  The
    fault plan is derived from ``(workload, seed)`` exactly as the serial
    loop always derived it; ``heavy`` selects the deterministic §5.3
    auto-disable scenario and ``storm`` the deterministic NIC reset-storm
    scenario instead.  ``connections`` elevates the TLS soak's concurrent
    flow count (the NVMe loop is keyed by queue depth and ignores it)."""
    if workload not in _WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (expected one of {sorted(_WORKLOADS)})")
    if heavy and storm:
        raise ValueError("heavy and storm are distinct deterministic scenarios; pick one")
    if heavy:
        plan = HEAVY_PLAN
    elif storm:
        plan = RESET_STORM_PLAN
    else:
        plan = random_plan(random.Random(f"chaos:plan:{workload}:{seed}"))
    with sanitizer.enabled():
        if workload == "tls":
            result = run_tls(seed, plan, duration, connections=connections)
        else:
            result = _WORKLOADS[workload](seed, plan, duration)
    result["plan"] = plan.describe()
    if heavy:
        result["heavy"] = True
    if storm:
        result["storm"] = True
    if connections != 1:
        result["connections"] = connections
    return result


def _grid_point(point: tuple) -> dict:
    """Picklable grid runner: ``(workload, seed, duration, heavy, connections, storm)``."""
    workload, seed, duration, heavy, connections, storm = point
    return chaos_point(
        workload=workload,
        seed=seed,
        duration=duration,
        heavy=heavy,
        connections=connections,
        storm=storm,
    )


def _point_key(p: tuple) -> str:
    tag = ":heavy" if p[3] else (":storm" if p[5] else "")
    return f"{p[0]}:seed={p[1]}{tag}"


def run_chaos(
    seeds: int = 10,
    workloads: tuple = ("tls", "nvme"),
    duration: float = 15e-3,
    heavy: bool = True,
    base_seed: int = 1,
    workers: Optional[int] = None,
    connections: int = 1,
    storm: bool = True,
    max_seconds: Optional[float] = None,
) -> dict:
    """The full soak; returns a JSON-friendly report.

    ``workers`` fans the scenario grid out over processes (default: the
    ``REPRO_EXEC_WORKERS`` environment knob; 1 = the serial path).  The
    report is keyed and ordered by scenario, so any worker count yields
    byte-identical output.

    ``max_seconds`` is a *wall-clock* deadline for the whole soak (CI's
    wedge detector).  The grid is then run in worker-sized batches; once
    the deadline passes, remaining points are abandoned and the report
    comes back with ``deadline_exceeded: true``, ``ok: false``, and the
    partial runs completed so far — a wedged soak fails loudly instead of
    hanging the pipeline.  Completed runs are unaffected (the batches are
    the same points in the same order), so a run that finishes in time is
    byte-identical to one with no deadline.
    """
    from repro.exec import run_grid
    from repro.exec.engine import default_workers

    points = [
        (name, seed, duration, False, connections, False)
        for seed in range(base_seed, base_seed + seeds)
        for name in workloads
    ]
    if heavy:
        points.extend((name, HEAVY_SEED, duration, True, connections, False) for name in workloads)
    if storm:
        points.extend(
            (name, RESET_STORM_SEED, duration, False, connections, True) for name in workloads
        )

    deadline = None
    if max_seconds is not None:
        deadline = time.monotonic() + max_seconds  # sim: noqa[SIM001]
    runs: list = []
    deadline_exceeded = False
    if deadline is None:
        runs = run_grid(points, _grid_point, workers=workers, key=_point_key)
    else:
        batch = max(1, workers if workers is not None else default_workers())
        for start in range(0, len(points), batch):
            if time.monotonic() >= deadline:  # sim: noqa[SIM001]
                deadline_exceeded = True
                break
            runs.extend(
                run_grid(points[start : start + batch], _grid_point, workers=workers, key=_point_key)
            )

    totals = {
        "runs": len(runs),
        "scheduled": len(points),
        "verified": sum(r["verified"] for r in runs),
        "mismatches": sum(r["mismatches"] for r in runs),
        "detected_errors": sum(r["detected_errors"] for r in runs),
        "sanitizer_violations": sum(r["sanitizer_violations"] for r in runs),
        "auto_disabled": sum(r["auto_disabled"] for r in runs),
        "nic_resets": sum(r.get("lifecycle", {}).get("resets", 0) for r in runs),
    }
    return {
        "totals": totals,
        "ok": (
            totals["mismatches"] == 0
            and totals["sanitizer_violations"] == 0
            and not deadline_exceeded
        ),
        "deadline_exceeded": deadline_exceeded,
        "runs": runs,
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.chaos", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--seeds", type=int, default=10, help="seeds per workload (default 10)")
    parser.add_argument("--base-seed", type=int, default=1, help="first seed (default 1)")
    parser.add_argument(
        "--workloads", default="tls,nvme", help="comma-separated subset of: tls,nvme"
    )
    parser.add_argument(
        "--duration", type=float, default=15e-3, help="simulated seconds per run (default 15e-3)"
    )
    parser.add_argument(
        "--no-heavy", action="store_true", help="skip the deterministic auto-disable scenario"
    )
    parser.add_argument(
        "--no-storm", action="store_true", help="skip the deterministic NIC reset-storm scenario"
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock deadline for the whole soak; on breach the run "
        "fails loudly with a partial report (CI passes this by default "
        "so a wedged soak cannot hang the pipeline)",
    )
    parser.add_argument(
        "--crash-report",
        metavar="PATH",
        help="on failure, write a crash-report JSON (lifecycle counters + "
        "last-N event trace of each failing run) for the CI artifact",
    )
    parser.add_argument(
        "--connections",
        type=int,
        default=1,
        help="concurrent TLS connections per soak point (default 1; the "
        "nightly scale-soak lane elevates this)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel worker processes (default: $REPRO_EXEC_WORKERS or 1)",
    )
    parser.add_argument("--json", metavar="PATH", help="write the full report as JSON")
    args = parser.parse_args(argv)
    workloads = tuple(w for w in args.workloads.split(",") if w)
    unknown = [w for w in workloads if w not in _WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")

    report = run_chaos(
        seeds=args.seeds,
        workloads=workloads,
        duration=args.duration,
        heavy=not args.no_heavy,
        base_seed=args.base_seed,
        workers=args.workers,
        connections=args.connections,
        storm=not args.no_storm,
        max_seconds=args.max_seconds,
    )
    for run in report["runs"]:
        if run.get("heavy"):
            tag = "HEAVY"
        elif run.get("storm"):
            tag = "STORM"
        else:
            tag = f"seed={run['seed']}"
        resets = run.get("lifecycle", {}).get("resets", 0)
        print(
            f"[{run['workload']:>4} {tag:>8}] verified={run['verified']:<5} "
            f"mismatches={run['mismatches']} detected={run['detected_errors']} "
            f"resync(req/retry/fail)={run['resync_requests']}/{run['resync_retries']}"
            f"/{run['resync_failures']} auto_disabled={run['auto_disabled']} "
            f"nic_resets={resets} sanitizer={run['sanitizer_violations']}"
        )
    totals = report["totals"]
    if report["deadline_exceeded"]:
        print(
            f"!! wall-clock deadline ({args.max_seconds}s) exceeded: "
            f"{totals['runs']}/{totals['scheduled']} scenarios completed; "
            "partial report follows"
        )
    print(
        f"== {totals['runs']} runs: verified={totals['verified']} "
        f"mismatches={totals['mismatches']} detected={totals['detected_errors']} "
        f"auto_disabled={totals['auto_disabled']} nic_resets={totals['nic_resets']} "
        f"sanitizer_violations={totals['sanitizer_violations']} "
        f"-> {'OK' if report['ok'] else 'FAIL'}"
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.crash_report and not report["ok"]:
        crash = {
            "totals": totals,
            "deadline_exceeded": report["deadline_exceeded"],
            "failing_runs": [
                {
                    "workload": run["workload"],
                    "seed": run["seed"],
                    "heavy": run.get("heavy", False),
                    "storm": run.get("storm", False),
                    "mismatches": run["mismatches"],
                    "sanitizer_violations": run["sanitizer_violations"],
                    "detected_errors": run["detected_errors"],
                    "lifecycle": run.get("lifecycle"),
                    "trace_tail": run.get("trace_tail", []),
                }
                for run in report["runs"]
                if run["mismatches"] or run["sanitizer_violations"]
            ],
        }
        with open(args.crash_report, "w") as fh:
            json.dump(crash, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"crash report written to {args.crash_report}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
