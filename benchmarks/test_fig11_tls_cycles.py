"""Figure 11 + §6.1: kTLS/iperf per-record cycles by record size, and
the single-core throughput gains of the real TLS offload (paper: 3.3x
transmit, 2.2x receive)."""

from benchlib import Figure, fields, product
from repro.experiments.iperf_tls import run_iperf
from repro.harness.report import Table

RECORD_SIZES = (2 * 1024, 4 * 1024, 8 * 1024, 16 * 1024)
PAPER_SHARE = {  # crypto % per record size, transmit / receive
    2 * 1024: (61, 54),
    4 * 1024: (66, 55),
    8 * 1024: (70, 58),
    16 * 1024: (70, 60),
}


def run_record(point):
    direction, size = point
    return run_iperf("tls-sw", direction=direction, record_size=size, measure=6e-3)


def record_metrics(grid):
    m = {}
    for (direction, size), run in grid.items():
        per_record = run.cycles_per_record(size)
        crypto = per_record.get("crypto", 0)
        m[f"{direction}.record{size}.crypto_per_record"] = crypto
        m[f"{direction}.record{size}.other_per_record"] = sum(per_record.values()) - crypto
        m[f"{direction}.record{size}.crypto_fraction"] = run.crypto_fraction
    return m


def record_table(m, grid):
    table = Table(
        ["record", "dir", "crypto/rec", "other/rec", "crypto %", "paper %"],
        title="Figure 11: kTLS/iperf per-record cycles (software TLS)",
    )
    for direction, size in grid:
        key = f"{direction}.record{size}"
        paper = PAPER_SHARE[size][0 if direction == "tx" else 1]
        share = f"{100 * m[f'{key}.crypto_fraction']:.0f}%"
        table.row(f"{size // 1024}KiB", direction, m[f"{key}.crypto_per_record"], m[f"{key}.other_per_record"], share,
                  f"{paper}%")
    return table.render()


def record_check(grid):
    # Bigger records make crypto more dominant, in both directions.
    for direction in ("tx", "rx"):
        series = [grid[(direction, s)].crypto_fraction for s in RECORD_SIZES]
        assert series[-1] > series[0]
        assert series[-1] > 0.5


FIG11 = Figure(
    "fig11_tls_cycles", product(("tx", "rx"), RECORD_SIZES), run_record, record_metrics, record_table, record_check
)


def run_gain(point):
    # 8 streams: the single DUT core stays the bottleneck while the
    # generator spreads the other side across its cores.
    direction, mode = point
    return run_iperf(mode, direction=direction, streams=8)


def gain_table(m, grid):
    table = Table(
        ["direction", "software Gbps", "offload Gbps", "gain", "paper"],
        title="§6.1: single-core iperf TLS offload improvement",
    )
    for direction, label, paper in (("tx", "transmit", "3.3x"), ("rx", "receive", "2.2x")):
        sw, off = m[f"{direction}.tls-sw.goodput_gbps"], m[f"{direction}.tls-offload.goodput_gbps"]
        table.row(label, sw, off, f"{off / sw:.2f}x", paper)
    return table.render()


def gain_check(grid):
    tx_gain = grid[("tx", "tls-offload")].goodput_gbps / grid[("tx", "tls-sw")].goodput_gbps
    rx_gain = grid[("rx", "tls-offload")].goodput_gbps / grid[("rx", "tls-sw")].goodput_gbps
    assert 2.0 <= tx_gain <= 4.5
    assert 1.5 <= rx_gain <= 3.5
    assert tx_gain > rx_gain  # transmit benefits more (paper's finding)


SEC61 = Figure(
    "sec61_offload_gains", product(("tx", "rx"), ("tls-sw", "tls-offload")), run_gain,
    fields(".".join, "goodput_gbps"), gain_table, gain_check,
)
