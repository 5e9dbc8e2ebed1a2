"""Figure 18: reordering at the receiver — costlier than loss for the
offload (reordered packets tear records without dropping bytes), yet
never worse than software TLS."""

from benchlib import KINDS, Figure, axis, product, record_mix
from repro.experiments.iperf_tls import run_iperf
from repro.harness.report import Table

STREAMS = 64  # scaled from the paper's 128 for simulation cost
MODES = ("tcp", "tls-offload", "tls-sw")


def run_point(point):
    reorder, mode = point
    return run_iperf(
        mode,
        direction="rx",
        streams=STREAMS,
        reorder=reorder,
        warmup=4e-3,
        measure=8e-3,
        seed=29,
    )


def metrics(grid):
    m = {}
    for reorder in axis(grid):
        cls = record_mix(grid[(reorder, "tls-offload")])
        key = f"reorder{round(100 * reorder)}"
        m[f"{key}.tcp_gbps"] = grid[(reorder, "tcp")].goodput_gbps
        m[f"{key}.offload_gbps"] = grid[(reorder, "tls-offload")].goodput_gbps
        m[f"{key}.sw_gbps"] = grid[(reorder, "tls-sw")].goodput_gbps
        for kind in KINDS:
            m[f"{key}.{kind}_frac"] = cls[kind]
    return m


def table(m, grid):
    table = Table(
        ["reorder %", "tcp Gbps", "offload Gbps", "sw tls Gbps", "full %", "partial %", "none %"],
        title=f"Figure 18: receiver-side reordering (1 receiver core, {STREAMS} streams)",
    )
    for reorder in axis(grid):
        key = f"reorder{round(100 * reorder)}"
        gbps = (m[f"{key}.{mode}_gbps"] for mode in ("tcp", "offload", "sw"))
        table.row(f"{100 * reorder:.0f}", *gbps, *(f"{100 * m[f'{key}.{kind}_frac']:.0f}%" for kind in KINDS))
    return table.render()


def check(grid):
    # Reordering shreds full offloading much faster than loss does
    # (paper: 24% fully offloaded at 2%, ~0 at 5%)...
    assert record_mix(grid[(0.03, "tls-offload")])["full"] < 0.6
    assert record_mix(grid[(0.05, "tls-offload")])["full"] < record_mix(grid[(0.01, "tls-offload")])["full"]
    # ...but in the worst case offload degrades to software TLS, not
    # below it (paper: "performance is still as good as software tls").
    for reorder in axis(grid):
        off = grid[(reorder, "tls-offload")].goodput_gbps
        sw = grid[(reorder, "tls-sw")].goodput_gbps
        assert off > sw * 0.85


FIG18 = Figure("fig18_rx_reorder", product((0.0, 0.01, 0.03, 0.05), MODES), run_point, metrics, table, check)
