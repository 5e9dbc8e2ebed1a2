"""Figure 10: NVMe-TCP/fio cycles per random read vs I/O depth, for
4 KiB and 256 KiB requests; copy+crc share of the total, with the LLC
cliff once the in-flight working set exceeds 32 MiB."""

from benchlib import Figure, fields, product
from repro.experiments.fio_cycles import run_fio_point
from repro.harness.report import Table

DEPTHS = (1, 4, 16, 64, 256)
CYCLES = ("cycles_crc", "cycles_copy", "cycles_other", "cycles_idle", "cycles_total")


def run_depth(point):
    block_size, depth = point
    return run_fio_point(block_size, depth, measure=8e-3)


def depth_table(m, grid):
    block_size = next(iter(grid))[0]
    table = Table(
        ["depth", "crc", "copy", "other", "idle", "total", "copy+crc %", "IOPS"],
        title=f"Figure 10 ({block_size // 1024}KiB): cycles per random read on the server",
    )
    for _, depth in grid:
        key = f"depth{depth}"
        table.row(
            depth,
            *(m[f"{key}.{col}"] for col in CYCLES),
            f"{100 * m[f'{key}.offloadable_fraction']:.1f}%",
            m[f"{key}.requests"] and m[f"{key}.iops"],
        )
    return table.render()


def depth_check(grid):
    block_size = next(iter(grid))[0]
    points = list(grid.values())
    fractions = [p.offloadable_fraction for p in points]
    if block_size == 4 * 1024:
        # Small requests: modest potential (paper: 2-8%).
        assert all(f < 0.20 for f in fractions)
    else:
        # Big requests: 25%+ at low depth; the LLC spill at depth >= 128
        # pushes the copy share up further (paper: 25% -> 55%).
        assert fractions[0] > 0.15
        assert max(fractions) > 0.30
        assert fractions[-1] > fractions[1]
    # Deeper queues amortize idle time.
    assert points[-1].cycles_idle < points[0].cycles_idle


depth_metrics = fields(lambda p: f"depth{p[1]}", *CYCLES, "offloadable_fraction", "requests", "iops")
FIG10_4KIB = Figure("fig10_fio_4KiB", product((4 * 1024,), DEPTHS), run_depth, depth_metrics, depth_table, depth_check)
FIG10_256KIB = Figure(
    "fig10_fio_256KiB", product((256 * 1024,), DEPTHS), run_depth, depth_metrics, depth_table, depth_check
)


def run_companion(offload):
    return run_fio_point(256 * 1024, 16, offload=offload, measure=6e-3)


def companion_table(m, grid):
    table = Table(
        ["config", "crc", "copy", "other", "IOPS"],
        title="Figure 10 companion: NVMe-TCP offload removes copy+crc",
    )
    for key in ("baseline", "offload"):
        table.row(key, *(m[f"{key}.{col}"] for col in ("cycles_crc", "cycles_copy", "cycles_other", "iops")))
    return table.render()


def companion_check(grid):
    """Sanity companion: with the NVMe offloads on, the copy+crc cycles
    vanish from the same workload."""
    base, offl = grid[False], grid[True]
    assert offl.cycles_crc + offl.cycles_copy < 0.1 * (base.cycles_crc + base.cycles_copy)
    assert offl.offloaded_pdus > 0


FIG10_COMPANION = Figure(
    "fig10_offload_companion", (False, True), run_companion,
    fields(lambda offload: "offload" if offload else "baseline", *CYCLES[:3], "iops", "offloaded_pdus"),
    companion_table, companion_check,
)
