"""Figure 17: packet loss at the *receiver* — throughput plus the
classification of TLS records into entirely / partially / not offloaded
(the effectiveness of the NIC's context recovery)."""

from benchlib import KINDS, Figure, axis, loss_pct, product, record_mix
from repro.experiments.iperf_tls import run_iperf
from repro.harness.report import Table

STREAMS = 64  # scaled from the paper's 128 for simulation cost
MODES = ("tcp", "tls-offload", "tls-sw")


def run_point(point):
    loss, mode = point
    return run_iperf(
        mode,
        direction="rx",
        streams=STREAMS,
        loss=loss,
        warmup=4e-3,
        measure=8e-3,
        seed=23,
    )


def metrics(grid):
    m = {}
    for loss in axis(grid):
        cls = record_mix(grid[(loss, "tls-offload")])
        key = loss_pct(loss)
        m[f"{key}.tcp_gbps"] = grid[(loss, "tcp")].goodput_gbps
        m[f"{key}.offload_gbps"] = grid[(loss, "tls-offload")].goodput_gbps
        m[f"{key}.sw_gbps"] = grid[(loss, "tls-sw")].goodput_gbps
        for kind in KINDS:
            m[f"{key}.{kind}_frac"] = cls[kind]
    return m


def table(m, grid):
    table = Table(
        ["loss %", "tcp Gbps", "offload Gbps", "sw tls Gbps", "full %", "partial %", "none %"],
        title=f"Figure 17: receiver-side loss (1 receiver core, {STREAMS} streams)",
    )
    for loss in axis(grid):
        key = loss_pct(loss)
        gbps = (m[f"{key}.{mode}_gbps"] for mode in ("tcp", "offload", "sw"))
        table.row(f"{100 * loss:.0f}", *gbps, *(f"{100 * m[f'{key}.{kind}_frac']:.0f}%" for kind in KINDS))
    return table.render()


def check(grid):
    # Loss-free: everything is offloaded and offload ~ matches TCP pace.
    clean = record_mix(grid[(0.0, "tls-offload")])
    assert clean["full"] > 0.99
    # Under light loss, most records stay fully offloaded; heavier loss
    # degrades gradually, never to zero.  (The paper reports >50% full
    # at 5%; our software-confirmation latency is more conservative —
    # each speculative recovery costs a few records — so the measured
    # tail is lower.  See EXPERIMENTS.md.)
    if 0.01 in axis(grid):
        assert record_mix(grid[(0.01, "tls-offload")])["full"] > 0.45
    worst = record_mix(grid[(axis(grid)[-1], "tls-offload")])
    assert worst["full"] > 0.05
    # Offload clearly wins at realistic loss (<=2% on the internet) and
    # degrades to software-TLS parity at the worst case.
    for loss in axis(grid):
        off = grid[(loss, "tls-offload")].goodput_gbps
        sw = grid[(loss, "tls-sw")].goodput_gbps
        assert off > sw * (1.2 if loss <= 0.01 else 0.9)


FIG17 = Figure(
    "fig17_rx_loss", product((0.0, 0.01, 0.03, 0.05), MODES), run_point, metrics, table, check,
    quick=product((0.0, 0.03), MODES), meta=lambda grid: {"streams": STREAMS},
)
