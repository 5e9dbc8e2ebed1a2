"""Figure 15: Redis-on-Flash (OffloadDB backend) with the combined
NVMe-TLS offload on the storage path, memtier get workload."""

from benchlib import Figure, app_metrics, busy_table, gain_table, product
from repro.experiments.rof_bench import run_rof

SIZES = (16 * 1024, 64 * 1024, 256 * 1024)
PAPER_1CORE = {16 * 1024: "+31%", 64 * 1024: "+67%", 256 * 1024: "2.3x"}
VARIANTS = ("baseline", "offload")


def run_point(point):
    cores, size, variant = point
    return run_rof(variant, value_size=size, server_cores=cores, measure=8e-3)


def one_core_check(grid):
    gains = [grid[(1, size, "offload")].goodput_gbps / grid[(1, size, "baseline")].goodput_gbps for size in SIZES]
    # Offload wins substantially at every size, up to ~2.3x (the paper's
    # headline).  Unlike the paper, the gain is not monotone in value
    # size here: at 256 KiB our per-get latency bounds the offload run
    # (8 synchronous connections per instance), compressing the gain.
    assert all(g > 1.3 for g in gains)
    assert max(gains) > 1.9


def eight_core_check(grid):
    base, off = grid[(8, 256 * 1024, "baseline")], grid[(8, 256 * 1024, "offload")]
    # At saturation the offload manifests as CPU savings (paper: -48%).
    assert off.busy_cores < base.busy_cores


FIG15A = Figure(
    "fig15a_rof_1core", product((1,), SIZES, VARIANTS), run_point, app_metrics,
    gain_table("Figure 15a: Redis-on-Flash + NVMe-TLS offload, 1 core", "value", PAPER_1CORE), one_core_check,
)
FIG15BC = Figure(
    "fig15bc_rof_8core", product((8,), SIZES, VARIANTS), run_point, app_metrics,
    busy_table("Figure 15b/c: Redis-on-Flash + NVMe-TLS offload, 8 cores", "value"), eight_core_check,
)
