"""The benchmark's workloads: seven scenarios through `repro`'s public
entry points, each chosen because it loads different layers.

A workload is a plain function ``(seed, quick, recorder) -> result`` plus a content
check on that result.  ``quick`` shrinks the simulated window to a smoke
size (`test_perf_bench.py`); the timed sizes are tuned so one rep measures
about 1.5 s of host time on a 2-core container.  The *why* of each
workload lives in ``BENCHMARK.json`` and in the README table.

The measured window is found by `child.py`: the last top-level
``Simulator.run`` call the scenario makes (everything before it — imports,
testbed build, handshakes, warm-up — is set-up), unless the workload marks
a wider one itself with ``recorder.window()`` as the grid does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Grid points of `exec_grid_2w` and the simulated seconds each advances
#: (``run_iperf`` runs warm-up then measure; 4 streams keep the handshake
#: scaling below the explicit warm-up, so the sum is exact).
GRID_POINTS = 8
GRID_STREAMS = 4
GRID_WARMUP_S = 6e-3


def _grid_measure_s(quick: bool) -> float:
    return 2e-3 if quick else 5e-3


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[..., Any]  # (seed, quick, recorder) -> result
    check: Callable[[Any, dict], list]  # (result, counts) -> failure strings
    #: Name of a workload whose digest this one's must equal (the serial
    #: run of the same grid); it is run once per invocation, not timed.
    reference: Optional[str] = None
    #: Counts this workload reads from its result instead of a Testbed.
    counts: Optional[Callable[[Any], dict]] = None


# ----------------------------------------------------------------------
# iperf
# ----------------------------------------------------------------------
#: Socket-buffer budget of the device under test in the lossy iperf
#: workloads, shared by the run's streams (16 streams get 256 KiB each,
#: the grid's 4 get 1 MiB).  The model's defaults (96 MiB receive window,
#: 4 MiB send buffer *per connection*) never bind, so one lost
#: retransmission lets thousands of segments queue out of order; the
#: sender then goes back N over a reassembly queue whose insert is O(n),
#: and host cost becomes heavy-tailed across seeds (ten seeds of the
#: unbounded rx workload: 7 M to 102 M Python calls for the same 75 K
#: events).  With the budget every seed is within a few percent and the
#: run still loses, retransmits and resyncs at the full loss rate.
DUT_SOCKET_BUDGET = 4 * 1024 * 1024


def bound_dut_buffers(streams: int):
    """A ``tune_nic`` hook for `run_iperf` that sizes the DUT host's
    per-connection socket buffers to ``DUT_SOCKET_BUDGET / streams``."""

    def tune(nic) -> None:
        nic.host.tcp_recv_window = nic.host.tcp_send_buffer = DUT_SOCKET_BUDGET // streams

    return tune


#: Every workload folds ``--seed`` onto this many scenario seeds, all of
#: which were run clean at these sizes (`iperf_tls_rx_loss` 0..400).  The
#: simulator is not clean on every seed: with a saturated sender core,
#: about 1 % of tx seeds (2 of 200, with or without the socket budget, at
#: 2 % or 0.5 % loss) make `TxEngine._recover` raise "L5P has no message
#: state covering seq" for a queued retransmission that an ACK has passed
#: only in part, and a tight receive window shows the same on rx.  A
#: benchmark run must not depend on which seed the caller happens to pass;
#: a change that leaves simulated results identical keeps these clean.
SCENARIO_SEEDS = 64


def scenario_seed(seed: int) -> int:
    return seed % SCENARIO_SEEDS


def _iperf(mode: str, direction: str, loss: float, measure: float):
    def run(seed: int, quick: bool, recorder):
        from repro.experiments.iperf_tls import run_iperf

        streams = 4 if quick else 16
        return run_iperf(
            mode,
            direction,
            streams=streams,
            loss=loss,
            measure=2e-3 if quick else measure,
            seed=scenario_seed(seed),
            tune_nic=bound_dut_buffers(streams) if loss else None,
        )

    return run


def _check_stream(result, counts: dict) -> list:
    failures = []
    if result.bytes_moved <= 0:
        failures.append("no bytes delivered in the window")
    if counts.get("l5p.auth_failures", 0):
        failures.append(f"auth_failures={counts['l5p.auth_failures']}")
    return failures


# ----------------------------------------------------------------------
# nginx over NVMe-TLS
# ----------------------------------------------------------------------
def _nginx(seed: int, quick: bool, recorder):
    from repro.experiments.nginx_bench import run_nginx

    # The default 12 ms warm-up reaches the same steady goodput as 7 ms
    # (21.39 Gb/s either way); the shorter one keeps a rep inside budget
    # while set-up still outweighs the window.
    return run_nginx(
        "offload+zc",
        storage="c1",
        server_cores=2 if quick else 8,
        connections=8 if quick else 48,
        nvme_offload=True,
        storage_tls="offload",
        warmup=5e-3 if quick else 7e-3,
        measure=1e-3 if quick else 5e-3,
        seed=scenario_seed(seed),
    )


def _check_nginx(result, counts: dict) -> list:
    failures = []
    if result.requests <= 0:
        failures.append("no request completed in the window")
    if counts.get("l5p.auth_failures", 0):
        failures.append(f"auth_failures={counts['l5p.auth_failures']}")
    return failures


# ----------------------------------------------------------------------
# 64 K-flow mix
# ----------------------------------------------------------------------
def _scale_mix(seed: int, quick: bool, recorder):
    from repro.experiments.scale_mix import run_mix_point

    # Events scale with flows x bursts_per_flow, not with duration; 1.1
    # bursts a flow keeps the 64 K-flow working set (and the 93 % miss
    # cliff) at about a quarter of the default run's events.
    if quick:
        return run_mix_point(4096, bursts_per_flow=2.0, seed=scenario_seed(seed))
    return run_mix_point(65536, bursts_per_flow=1.1, seed=scenario_seed(seed))


def _check_mix(result, counts: dict) -> list:
    return [] if result.pkts > 0 else ["no packets generated"]


def _mix_counts(result) -> dict:
    misses = round(result.cache_miss_rate * result.bursts)
    return {
        "net.pkts": result.pkts,
        "nic.cache_hits": result.bursts - misses,
        "nic.cache_misses": misses,
        "nic.pcie_bytes": round(result.miss_dma_mb * 1e6),
    }


# ----------------------------------------------------------------------
# reset storm
# ----------------------------------------------------------------------
def _reset_storm(seed: int, quick: bool, recorder):
    from repro.faults import chaos

    # 15 ms covers all three scripted hang windows (last one ends at
    # 8.2 ms) plus the watchdog -> reset -> reattach recovery after it.
    storm_seed = chaos.RESET_STORM_SEED + scenario_seed(seed)
    return chaos.chaos_point("nvme", storm_seed, 4e-3 if quick else 15e-3, storm=True)


def _check_storm(result: dict, counts: dict) -> list:
    failures = []
    for key in ("mismatches", "sanitizer_violations"):
        if result[key]:
            failures.append(f"{key}={result[key]}")
    if result["verified"] <= 0:
        failures.append("no completion verified")
    return failures


def _storm_counts(result: dict) -> dict:
    return {
        "faults.nic_resets": result.get("lifecycle", {}).get("resets", 0),
        "faults.detected_errors": result["detected_errors"],
        "faults.mismatches": result["mismatches"],
    }


# ----------------------------------------------------------------------
# parallel grid
# ----------------------------------------------------------------------
def grid_point(point: tuple):
    """Picklable grid runner: ``(seed, measure)``."""
    from repro.experiments.iperf_tls import run_iperf

    seed, measure = point
    return run_iperf(
        "tls-offload",
        "rx",
        streams=GRID_STREAMS,
        loss=0.01,
        warmup=GRID_WARMUP_S,
        measure=measure,
        seed=seed,
        tune_nic=bound_dut_buffers(GRID_STREAMS),
    )


def _grid_workers(wanted: int) -> int:
    return min(wanted, os.cpu_count() or 1)


def _grid(workers: int):
    def run(seed: int, quick: bool, recorder):
        from repro.exec import run_grid, shutdown_pool

        measure = _grid_measure_s(quick)
        points = [(GRID_POINTS * scenario_seed(seed) + i, measure) for i in range(GRID_POINTS)]
        with recorder.window(sim_s=GRID_POINTS * (GRID_WARMUP_S + measure)):
            results = run_grid(points, grid_point, workers=_grid_workers(workers))
        # Reap the persistent pool so the workers' CPU time and peak RSS
        # are visible to getrusage(RUSAGE_CHILDREN).
        shutdown_pool()
        return results

    return run


def _check_grid(results: list, counts: dict) -> list:
    failures = []
    if len(results) != GRID_POINTS:
        failures.append(f"{len(results)} grid results for {GRID_POINTS} points")
    if any(r.bytes_moved <= 0 for r in results):
        failures.append("a grid point delivered no bytes")
    return failures


def _grid_counts(workers: int):
    def counts(results: list) -> dict:
        use = _grid_workers(workers)
        return {"exec.workers": use, "exec.pool_bypassed": int(use == 1)}

    return counts


WORKLOADS = {
    w.name: w
    for w in (
        Workload("iperf_tls_rx_loss", _iperf("tls-offload", "rx", 0.02, 40e-3), _check_stream),
        Workload("iperf_tls_tx_loss", _iperf("tls-offload", "tx", 0.02, 14e-3), _check_stream),
        Workload("iperf_tcp_clean", _iperf("tcp", "rx", 0.0, 30e-3), _check_stream),
        Workload("nginx_nvme_tls", _nginx, _check_nginx),
        Workload("scale_mix_64k", _scale_mix, _check_mix, counts=_mix_counts),
        Workload("reset_storm_nvme", _reset_storm, _check_storm, counts=_storm_counts),
        Workload(
            "exec_grid_2w",
            _grid(2),
            _check_grid,
            reference="exec_grid_serial",
            counts=_grid_counts(2),
        ),
        Workload("exec_grid_serial", _grid(1), _check_grid, counts=_grid_counts(1)),
    )
}

#: The workloads the benchmark reports (the serial grid is a reference).
PUBLIC = tuple(name for name in WORKLOADS if name != "exec_grid_serial")
