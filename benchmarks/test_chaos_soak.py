"""Chaos soak: TLS and NVMe-TCP under randomized fault mixes, content-verified.

The paper's central promise is that autonomous offload is transparent:
loss, corruption, resync faults and a NIC that dies mid-record may cost
time, never bytes.  Every point runs one seeded :func:`chaos.chaos_point`
with the invariant sanitizer on and every received byte checked against
its source; the seeded points draw a random fault mix, the ``heavy``
point drops every resync response (the §5.3 auto-disable path must fire)
and the ``storm`` point scripts NIC hangs mid-transfer (the
hang -> watchdog -> reset -> reattach cycle must run).  The per-point
counts are gated at exact equality; a failing check names the points and
prints the event-trace tail each failing run kept.
"""

from benchlib import Figure
from repro.faults import chaos
from repro.harness.report import Table

DURATION = 8e-3
WORKLOADS = ("tls", "nvme")
FIELDS = (
    "verified",
    "mismatches",
    "detected_errors",
    "resync_requests",
    "resync_retries",
    "resync_failures",
    "auto_disabled",
    "nic_resets",
    "sanitizer_violations",
)
SCENARIO_SEEDS = {"heavy": chaos.HEAVY_SEED, "storm": chaos.RESET_STORM_SEED}


def points(seeds, connections):
    """``(workload, scenario, connections)`` for seeds 1..``seeds``, then heavy and storm."""
    scenarios = [*range(1, seeds + 1), *SCENARIO_SEEDS]
    return [(workload, scenario, connections) for scenario in scenarios for workload in WORKLOADS]


def run_point(point):
    workload, scenario, connections = point
    return chaos.chaos_point(
        workload,
        SCENARIO_SEEDS.get(scenario, scenario),
        DURATION,
        heavy=scenario == "heavy",
        connections=connections,
        storm=scenario == "storm",
    )


def nic_resets(run):
    return run.get("lifecycle", {}).get("resets", 0)


def metrics(grid):
    return {
        f"{workload}.{scenario}.{field}": nic_resets(run) if field == "nic_resets" else run[field]
        for (workload, scenario, _), run in grid.items()
        for field in FIELDS
    }


def table(m, grid):
    connections = next(iter(grid))[2]
    t = Table(
        ["workload", "scenario", *FIELDS],
        title=(
            f"Chaos soak: content-verified TLS and NVMe-TCP under fault injection "
            f"({DURATION * 1e3:.0f} ms per point, TLS connections per point: {connections})"
        ),
    )
    for workload, scenario, _ in grid:
        t.row(workload, scenario, *(m[f"{workload}.{scenario}.{field}"] for field in FIELDS))
    return t.render()


def expect(grid, ok, what):
    failing = {point: run for point, run in grid.items() if not ok(point, run)}
    assert not failing, f"{what}:" + "".join(
        f"\n{point}: trace tail\n  " + "\n  ".join(map(str, run.get("trace_tail", ["(none kept)"])))
        for point, run in failing.items()
    )


def check(grid):
    expect(
        grid,
        lambda p, r: r["mismatches"] == 0 and r["sanitizer_violations"] == 0 and r["verified"] > 0,
        "silent corruption, an invariant violation or no verified content",
    )
    expect(grid, lambda p, r: p[1] != "heavy" or r["auto_disabled"] >= 1, "heavy point never auto-disabled the offload")
    expect(grid, lambda p, r: p[1] != "storm" or nic_resets(r) >= 1, "storm point never reset the NIC")


CHAOS_SOAK = Figure("chaos_soak", points(6, 16), run_point, metrics, table, check, quick=points(3, 1))
