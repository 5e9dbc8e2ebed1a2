"""Figure 14: nginx with the combined NVMe-TLS offload, C1.

The storage hop runs NVMe-TCP over TLS; the client hop runs https.
Baseline: all software.  Offload: TLS offload + zc on the client hop,
combined TLS+NVMe offload on the storage hop."""

from benchlib import Figure, app_metrics, busy_table, gain_table, product
from repro.experiments.nginx_bench import run_nginx

SIZES = (64 * 1024, 256 * 1024)
PAPER_1CORE = {64 * 1024: "2.1x", 256 * 1024: "2.8x"}
VARIANTS = {  # variant -> run_nginx arguments
    "baseline": {"variant": "https", "storage_tls": "sw"},
    "offload": {"variant": "offload+zc", "nvme_offload": True, "storage_tls": "offload"},
}


def run_point(point):
    cores, size, variant = point
    return run_nginx(
        storage="c1",
        file_size=size,
        server_cores=cores,
        connections=32,
        measure=8e-3,
        **VARIANTS[variant],
    )


def one_core_check(grid):
    for size in SIZES:
        assert grid[(1, size, "offload")].goodput_gbps > grid[(1, size, "baseline")].goodput_gbps * 1.5
    # Combined gains exceed the single-offload gains of Figure 12.
    big = grid[(1, 256 * 1024, "offload")].goodput_gbps / grid[(1, 256 * 1024, "baseline")].goodput_gbps
    assert big > 2.0


def eight_core_check(grid):
    base, off = grid[(8, 256 * 1024, "baseline")], grid[(8, 256 * 1024, "offload")]
    # At the drive bound, the combined offload slashes CPU (paper: -41%).
    assert off.busy_cores < base.busy_cores


FIG14A = Figure(
    "fig14a_nginx_nvme_tls_1core", product((1,), SIZES, VARIANTS), run_point, app_metrics,
    gain_table("Figure 14a: nginx + combined NVMe-TLS offload, C1, 1 core", "file", PAPER_1CORE), one_core_check,
)
FIG14BC = Figure(
    "fig14bc_nginx_nvme_tls_8core", product((8,), SIZES, VARIANTS), run_point, app_metrics,
    busy_table("Figure 14b/c: combined NVMe-TLS offload, C1, 8 cores", "file"), eight_core_check,
)
