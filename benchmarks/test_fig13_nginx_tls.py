"""Figure 13: nginx with the TLS offload variants, C2 (page cache,
NIC-bound): https baseline vs offload vs offload+zc vs plain http."""

from benchlib import Figure, app_metrics, product
from repro.experiments.nginx_bench import VARIANTS, run_nginx
from repro.harness.report import Table, ratio_label

SIZES = (16 * 1024, 64 * 1024, 256 * 1024)
PAPER_ZC_1CORE = {16 * 1024: "+24%", 64 * 1024: "+64%", 256 * 1024: "2.7x"}


def run_point(point):
    cores, size, variant = point
    return run_nginx(
        variant,
        storage="c2",
        file_size=size,
        server_cores=cores,
        connections=24,
        measure=8e-3,
    )


def one_core_table(m, grid):
    table = Table(
        ["file", "https", "offload", "offload+zc", "http", "zc vs https", "paper"],
        title="Figure 13a: nginx TLS offload variants, C2, 1 core (Gbps)",
    )
    for size in SIZES:
        https, off, zc, http = (m[f"{size // 1024}k.{v}.goodput_gbps"] for v in ("https", "offload", "offload+zc",
                                                                                  "http"))
        table.row(f"{size // 1024}KiB", https, off, zc, http, ratio_label(zc, https), PAPER_ZC_1CORE[size])
    return table.render()


def one_core_check(grid):
    for size in SIZES:
        https = grid[(1, size, "https")].goodput_gbps
        off = grid[(1, size, "offload")].goodput_gbps
        zc = grid[(1, size, "offload+zc")].goodput_gbps
        http = grid[(1, size, "http")].goodput_gbps
        # Paper's ordering: https < offload < offload+zc <= http.
        assert https < off < zc
        assert zc <= http * 1.05
    # Gains grow with file size (per-byte crypto dominates big files).
    gain = lambda s: grid[(1, s, "offload+zc")].goodput_gbps / grid[(1, s, "https")].goodput_gbps  # noqa: E731
    assert gain(256 * 1024) > gain(16 * 1024)


def eight_core_table(m, grid):
    table = Table(
        ["variant", "Gbps", "busy cores"],
        title="Figure 13b/c: nginx TLS variants, C2, 8 cores, 256KiB files",
    )
    for variant in VARIANTS:
        table.row(variant, m[f"256k.{variant}.goodput_gbps"], m[f"256k.{variant}.busy_cores"])
    return table.render()


def eight_core_check(grid):
    zc = grid[(8, 256 * 1024, "offload+zc")]
    https = grid[(8, 256 * 1024, "https")]
    # Offload+zc pushes far beyond the software baseline toward line
    # rate (paper: +88% when reaching the NIC's limit).
    assert zc.goodput_gbps > https.goodput_gbps * 1.5
    assert zc.goodput_gbps > 50  # closing in on the 100G NIC


FIG13A = Figure(
    "fig13a_nginx_tls_1core", product((1,), SIZES, VARIANTS), run_point, app_metrics, one_core_table, one_core_check
)
FIG13BC = Figure(
    "fig13bc_nginx_tls_8core", product((8,), (256 * 1024,), VARIANTS), run_point, app_metrics,
    eight_core_table, eight_core_check,
)
