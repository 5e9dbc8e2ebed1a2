"""Figure 12: nginx with the NVMe-TCP offload, C1 (cold page cache,
drive-bound).  (a) 1-core throughput, (b) 8-core throughput against the
drive's ~21.4 Gbps ceiling, (c) busy cores at saturation."""

from benchlib import Figure, app_metrics, busy_table, gain_table, product
from repro.experiments.nginx_bench import run_nginx

SIZES = (16 * 1024, 64 * 1024, 256 * 1024)
PAPER_1CORE = {16 * 1024: "+11%", 64 * 1024: "+26%", 256 * 1024: "+44%"}
VARIANTS = ("baseline", "offload")


def run_point(point):
    cores, size, variant = point
    return run_nginx(
        "http",
        storage="c1",
        file_size=size,
        server_cores=cores,
        connections=32,
        nvme_offload=variant == "offload",
        measure=8e-3,
    )


def one_core_check(grid):
    gains = {
        size: grid[(1, size, "offload")].goodput_gbps / grid[(1, size, "baseline")].goodput_gbps
        for size in SIZES
    }
    # Offload wins, and the gain grows with file size (per-byte savings).
    assert all(g > 1.0 for g in gains.values())
    assert gains[256 * 1024] > gains[16 * 1024]


def eight_core_check(grid):
    base, off = grid[(8, 256 * 1024, "baseline")], grid[(8, 256 * 1024, "offload")]
    # Both are capped by the drive (~21.4 Gbps)...
    assert base.goodput_gbps < 23 and off.goodput_gbps < 23
    # ...so the offload's benefit appears as reduced CPU (paper: -27%).
    assert off.busy_cores < base.busy_cores


FIG12A = Figure(
    "fig12a_nginx_nvme_1core", product((1,), SIZES, VARIANTS), run_point, app_metrics,
    gain_table("Figure 12a: nginx + NVMe-TCP offload, C1, 1 core", "file", PAPER_1CORE), one_core_check,
)
FIG12BC = Figure(
    "fig12bc_nginx_nvme_8core", product((8,), SIZES, VARIANTS), run_point, app_metrics,
    busy_table("Figure 12b/c: nginx + NVMe-TCP offload, C1, 8 cores (drive-bound)", "file"), eight_core_check,
)
