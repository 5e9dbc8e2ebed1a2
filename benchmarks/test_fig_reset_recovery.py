"""Reset recovery: the §2 offload-dependence argument, quantified.

No paper figure reports this directly — the paper *argues* that because
all TCP/L5P state is host-owned, a NIC crash or firmware reset can only
cost performance, never correctness or connections.  This benchmark
makes the claim measurable on the simulated testbed:

1. **Reset-frequency sweep** — the tx-offloaded iperf workload (the
   DUT's single core transmits; this is the paper's dangerous direction,
   where queued records hold dummy digests) with 0..N full
   hang -> watchdog -> reset -> reattach cycles scripted into the
   measure window.  During each outage the TX shadow transforms records
   in software, so goodput dips and the DUT's crypto cycle share rises
   with reset frequency — then both recover; zero resets with the
   machinery *armed* is byte-identical to an unarmed run.  (The rx
   direction is unsuitable for a frequency sweep: the saturated
   receiver's standing backlog delays outage effects past the window,
   masking marginal resets.)
2. **Connection-survival table** — the autonomous design vs the ``toe``
   personality (PnO-TCP / FlexiNS style full TCP offload, whose
   connection state lives on the NIC) under the same mid-transfer reset
   schedule: autonomous completes every connection content-verified,
   TOE loses them.
"""

from benchlib import Figure, product
from repro.experiments.iperf_tls import run_iperf
from repro.faults import FaultPlan, NicLifecycleProfile
from repro.faults.chaos import TLS_CHUNKS, run_tls
from repro.harness.report import Table

SEED = 31
STREAMS = 8
MEASURE = 8e-3
# run_iperf scales its warm-up to absorb the serial TLS handshakes; the
# hang windows below must land inside the measure window, so mirror it.
WARMUP = 4e-3 + 1.3 * STREAMS * 320_000 / 2.0e9

SURVIVAL_CONNS = 8
SURVIVAL_CHUNKS = max(8, TLS_CHUNKS // SURVIVAL_CONNS)  # run_tls's 4 KiB chunks per connection
SURVIVAL_WINDOW = ((6e-4, 6.5e-4),)  # mid-transfer at chaos-testbed scale
PERSONALITIES = ("autonomous", "toe")


def points(reset_points):
    # (tls-offload, None) is unarmed: the 0.0%-deviation ref; (tls-sw, 0)
    # the software TLS reference; then the two survival personalities.
    return product(("tls-offload",), (*reset_points, None)) + [("tls-sw", 0), *product(("survival",), PERSONALITIES)]


def reset_plan(resets: int) -> FaultPlan:
    """A lifecycle plan with ``resets`` hang windows spread evenly over
    the measure window (armed-but-idle when zero); the reset latency is
    pinned so the sweep isolates reset *frequency*."""
    windows = tuple(
        (WARMUP + (k + 0.5) * MEASURE / resets, WARMUP + (k + 0.5) * MEASURE / resets + 5e-5)
        for k in range(resets)
    )
    return FaultPlan(
        lifecycle=NicLifecycleProfile(hang_windows=windows, reset_latency_s=(5e-4, 5e-4))
    )


def run_point(point):
    mode, arg = point
    if mode == "survival":
        # SURVIVAL_CONNS concurrent TLS connections, one mid-transfer NIC
        # reset on the DUT (receiver), every chunk content-verified.
        plan = FaultPlan(lifecycle=NicLifecycleProfile(hang_windows=SURVIVAL_WINDOW, personality=arg))
        return run_tls(SEED, plan, 15e-3, connections=SURVIVAL_CONNS)
    return run_iperf(
        mode,
        direction="tx",
        streams=STREAMS,
        warmup=4e-3,
        measure=MEASURE,
        seed=SEED,
        faults=None if arg is None else reset_plan(arg),
    )


def reset_points(grid):
    return [n for mode, n in grid if mode == "tls-offload" and n is not None]


def survivors(run):
    """Connections that completed with every chunk content-verified."""
    return sum(1 for v in run["conn_verified"] if v == SURVIVAL_CHUNKS)


def metrics(grid):
    m = {}
    for n in reset_points(grid):
        run = grid[("tls-offload", n)]
        m[f"resets{n}.goodput_gbps"] = run.goodput_gbps
        m[f"resets{n}.crypto_frac"] = run.crypto_fraction
        m[f"resets{n}.nic_resets"] = run.lifecycle.get("resets", 0)
        m[f"resets{n}.reinstalls"] = run.lifecycle.get("reinstalls", 0)
    m["sw.goodput_gbps"] = grid[("tls-sw", 0)].goodput_gbps
    for personality in PERSONALITIES:
        m[f"survivors.{personality}"] = survivors(grid[("survival", personality)])
    m["survivors.toe_lost"] = grid[("survival", "toe")]["lifecycle"]["toe_connections_lost"]
    return m


def table(m, grid):
    table = Table(
        ["resets / measure", "goodput Gbps", "crypto %", "reinstalls", "fallback pkts"],
        title=(
            f"Reset recovery: goodput vs NIC reset frequency "
            f"(tx offload, 1 sender core, {STREAMS} streams, {MEASURE * 1e3:.0f} ms window)"
        ),
    )
    for n in reset_points(grid):
        fallback = grid[("tls-offload", n)].lifecycle.get("fallback_tx_pkts", 0)
        crypto = f"{100 * m[f'resets{n}.crypto_frac']:.0f}%"
        table.row(str(n), m[f"resets{n}.goodput_gbps"], crypto, m[f"resets{n}.reinstalls"], fallback)
    table.row("sw tls (ref)", m["sw.goodput_gbps"], "-", "-", "-")
    surv = Table(
        ["personality", "connections", "surviving a reset", "lost"],
        title=(
            f"Connection survival across one mid-transfer NIC reset "
            f"({SURVIVAL_CONNS} TLS connections, content-verified)"
        ),
    )
    surv.row("autonomous", SURVIVAL_CONNS, m["survivors.autonomous"], 0)
    surv.row("toe (full TCP offload)", SURVIVAL_CONNS, m["survivors.toe"], m["survivors.toe_lost"])
    return table.render() + "\n\n" + surv.render()


def check(grid):
    # Every scripted reset fired and recovered (the sweep is what it
    # claims to be), and recovery re-installed contexts.
    for n in reset_points(grid):
        life = grid[("tls-offload", n)].lifecycle
        assert life.get("resets", 0) == n
        if n:
            assert life.get("reinstalls", 0) > 0
    # Armed-but-idle is *exactly* free: byte-identical goodput, cycle
    # accounting and record mix vs the unarmed run (the paper's
    # baselines stay untouched).
    armed_idle = grid[("tls-offload", 0)]
    unarmed = grid[("tls-offload", None)]
    assert armed_idle.goodput_gbps == unarmed.goodput_gbps
    assert armed_idle.dut_cycles == unarmed.dut_cycles
    assert armed_idle.records == unarmed.records
    # Zero resets: the offloaded sender spends no cycles on crypto.
    assert armed_idle.crypto_fraction == 0.0
    # Each added reset costs goodput (the software shadow carries the
    # outage) and raises the crypto cycle share — strictly monotone.
    runs = [grid[("tls-offload", n)] for n in reset_points(grid)]
    for prev, cur in zip(runs, runs[1:]):
        assert cur.goodput_gbps < prev.goodput_gbps
        assert cur.crypto_fraction > prev.crypto_fraction
    # But the offload comes back after every reset: even the worst point
    # clears the all-software reference by a wide margin.
    assert runs[-1].goodput_gbps > grid[("tls-sw", 0)].goodput_gbps
    # The survival contrast: autonomy loses nothing, TOE loses flows.
    autonomous, toe = grid[("survival", "autonomous")], grid[("survival", "toe")]
    assert autonomous["lifecycle"]["resets"] == 1 and toe["lifecycle"]["resets"] == 1
    assert autonomous["sanitizer_violations"] == 0 and toe["sanitizer_violations"] == 0
    assert survivors(autonomous) == SURVIVAL_CONNS
    assert autonomous["mismatches"] == 0
    assert autonomous["lifecycle"]["toe_connections_lost"] == 0
    assert toe["lifecycle"]["toe_connections_lost"] > 0
    assert survivors(toe) < SURVIVAL_CONNS


FIG_RESET_RECOVERY = Figure(
    "fig_reset_recovery", points((0, 1, 2, 4)), run_point, metrics, table, check, quick=points((0, 2)),
    meta=lambda grid: {"streams": STREAMS, "reset_points": reset_points(grid), "seed": SEED},
)
