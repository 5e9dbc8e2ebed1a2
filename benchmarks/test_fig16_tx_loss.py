"""Figure 16: packet loss at the *sender* — throughput of plain TCP,
TLS offload, and software TLS (single sender core, many streams), plus
the PCIe bandwidth the NIC spends reconstructing TX contexts."""

from benchlib import Figure, axis, loss_pct, product
from repro.experiments.iperf_tls import run_iperf
from repro.harness.report import Table

# 16 streams, scaled from the paper's 128: with our heavier (no-TSO)
# per-byte costs, more sender streams than this on one core make the
# self-paced send rotation exceed the RTO and collapse all variants.
STREAMS = 16
MODES = ("tcp", "tls-offload", "tls-sw")


def run_point(point):
    loss, mode = point
    return run_iperf(
        mode,
        direction="tx",
        streams=STREAMS,
        loss=loss,
        warmup=4e-3,
        measure=8e-3,
        seed=17,
    )


def metrics(grid):
    m = {}
    for loss in axis(grid):
        off = grid[(loss, "tls-offload")]
        key = loss_pct(loss)
        m[f"{key}.tcp_gbps"] = grid[(loss, "tcp")].goodput_gbps
        m[f"{key}.offload_gbps"] = off.goodput_gbps
        m[f"{key}.sw_gbps"] = grid[(loss, "tls-sw")].goodput_gbps
        m[f"{key}.pcie_recovery_frac"] = off.pcie_recovery_fraction
        m[f"{key}.tx_recoveries"] = off.tx_recoveries
    return m


def table(m, grid):
    table = Table(
        ["loss %", "tcp Gbps", "offload Gbps", "sw tls Gbps", "off vs tls", "PCIe recovery %", "tx recoveries"],
        title=f"Figure 16: sender-side loss (1 core, {STREAMS} iperf streams)",
    )
    for loss in axis(grid):
        key = loss_pct(loss)
        off, sw = m[f"{key}.offload_gbps"], m[f"{key}.sw_gbps"]
        pcie = f"{100 * m[f'{key}.pcie_recovery_frac']:.2f}%"
        table.row(f"{100 * loss:.0f}", m[f"{key}.tcp_gbps"], off, sw, f"{off / sw:.2f}x", pcie,
                  m[f"{key}.tx_recoveries"])
    return table.render()


def check(grid):
    for loss in axis(grid):
        tcp = grid[(loss, "tcp")].goodput_gbps
        off = grid[(loss, "tls-offload")].goodput_gbps
        sw = grid[(loss, "tls-sw")].goodput_gbps
        # Loss-free, offloaded TLS stays close to plain TCP (paper:
        # within 8-11% at every loss rate; our TX recovery path charges
        # more CPU per retransmission, so the gap widens with loss)...
        assert off > (0.8 if loss == 0 else 0.5) * tcp
        # ...and beats software TLS even at the worst loss (paper: >= 33%).
        assert off > sw
    # Loss hurts throughput.
    worst_loss = axis(grid)[-1]
    assert grid[(worst_loss, "tcp")].goodput_gbps < grid[(0.0, "tcp")].goodput_gbps
    # Context recovery happens under loss but PCIe stays cheap (<2.5%).
    lossy = grid[(worst_loss, "tls-offload")]
    assert lossy.tx_recoveries > 0
    assert lossy.pcie_recovery_fraction < 0.025
    assert grid[(0.0, "tls-offload")].tx_recoveries == 0


FIG16 = Figure(
    "fig16_tx_loss", product((0.0, 0.01, 0.03, 0.05), MODES), run_point, metrics, table, check,
    quick=product((0.0, 0.03), MODES), meta=lambda grid: {"streams": STREAMS},
)
