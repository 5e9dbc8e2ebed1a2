"""Figure 17 variant: *bursty* receiver-side loss (Gilbert–Elliott).

Uniform loss at internet-like rates is mostly absorbed by the
deterministic Figure 8b boundary resync; correlated bursts jump the
stream past the known record boundary and force the Figure 7
speculative-resync machinery.  This sweep holds the mean loss rate
equal to Figure 17's points but clusters the drops (mean burst length
6 packets) and reports throughput, record classification, and how often
the NIC had to speculate."""

from benchlib import KINDS, Figure, axis, loss_pct, product, record_mix
from repro.experiments.iperf_tls import run_iperf
from repro.faults import FaultPlan, GilbertElliott, LinkFaultProfile
from repro.harness.report import Table

BURST_LEN = 6  # mean bad-state residency, in packets
STREAMS = 64
MODES = ("tls-offload", "tls-sw")


def burst_plan(mean_loss):
    if mean_loss == 0.0:
        return None
    burst = GilbertElliott.for_mean_loss(mean_loss, burst_len=BURST_LEN)
    return FaultPlan(to_server=LinkFaultProfile(burst=burst))


def run_point(point):
    loss, mode = point
    return run_iperf(
        mode,
        direction="rx",
        streams=STREAMS,
        warmup=4e-3,
        measure=8e-3,
        seed=29,
        faults=burst_plan(loss),
    )


def metrics(grid):
    m = {}
    for loss in axis(grid):
        off = grid[(loss, "tls-offload")]
        cls = record_mix(off)
        key = loss_pct(loss)
        m[f"{key}.offload_gbps"] = off.goodput_gbps
        m[f"{key}.sw_gbps"] = grid[(loss, "tls-sw")].goodput_gbps
        for kind in KINDS:
            m[f"{key}.{kind}_frac"] = cls[kind]
        m[f"{key}.resyncs"] = off.resyncs
    return m


def table(m, grid):
    table = Table(
        ["mean loss %", "offload Gbps", "sw tls Gbps", "full %", "partial %", "none %", "resyncs"],
        title=(
            f"Figure 17b: bursty receiver-side loss (GE, burst={BURST_LEN}, "
            f"1 receiver core, {STREAMS} streams)"
        ),
    )
    for loss in axis(grid):
        key = loss_pct(loss)
        fracs = (f"{100 * m[f'{key}.{kind}_frac']:.0f}%" for kind in KINDS)
        table.row(f"{100 * loss:.0f}", m[f"{key}.offload_gbps"], m[f"{key}.sw_gbps"], *fracs, m[f"{key}.resyncs"])
    return table.render()


def check(grid):
    # Burst-free: everything stays fully offloaded.
    clean = record_mix(grid[(0.0, "tls-offload")])
    assert clean["full"] > 0.99
    assert grid[(0.0, "tls-offload")].resyncs == 0
    # Bursts force speculation (uniform loss at these rates mostly does
    # not — that is the point of this variant) yet recovery still keeps
    # a solid share of records on the offload path.
    worst = axis(grid)[-1]
    assert grid[(worst, "tls-offload")].resyncs > 0
    assert record_mix(grid[(worst, "tls-offload")])["full"] > 0.05
    # Offload still beats or matches software TLS across the sweep.
    for loss in axis(grid):
        off = grid[(loss, "tls-offload")].goodput_gbps
        sw = grid[(loss, "tls-sw")].goodput_gbps
        assert off > sw * (1.2 if loss <= 0.01 else 0.9)


FIG17B = Figure(
    "fig17b_burst_loss", product((0.0, 0.01, 0.03, 0.05), MODES), run_point, metrics, table, check,
    quick=product((0.0, 0.03), MODES), meta=lambda grid: {"streams": STREAMS, "burst_len": BURST_LEN},
)
