"""Figure 19 XL: the context-cache eviction cliff at datacenter flow
counts (16 K..128 K concurrent flows against the full 4 MiB cache).

Unlike test_fig19_scalability (real TCP+TLS, both axes scaled down 16x),
this sweep keeps the cache at paper scale and drives it with the
heavy-tailed multi-tenant flow mix of repro.experiments.scale_mix: the
miss rate falls off a cliff once the concurrent set outgrows ~20 K
flows, while goodput degrades gently because only a burst's first
packet pays the miss.
"""

from benchlib import Figure, axis, fields, product
from repro.experiments.scale_mix import run_mix_point
from repro.harness.report import Table

VARIANTS = ("offload+zc", "https")


def run_point(point):
    flows, variant = point
    return run_mix_point(flows, variant=variant)


def meta(grid):
    return {"cache_capacity_flows": grid[(axis(grid)[0], "offload+zc")].cache_capacity_flows}


def table(m, grid):
    table = Table(
        ["flows", "variant", "Gbps", "mean burst", "ctx miss %", "ctx DMA MB"],
        title=f"Figure 19 XL: datacenter flow mix (NIC cache ~{meta(grid)['cache_capacity_flows']} flows)",
    )
    for flows, variant in grid:
        key = f"f{flows}.{variant}"
        miss, dma = f"{100 * m[f'{key}.miss_rate']:.1f}%", f"{m[f'{key}.dma_mb']:.1f}"
        table.row(flows, variant, m[f"{key}.gbps"], m[f"{key}.mean_burst"], miss, dma)
    return table.render()


def check(grid):
    flows = axis(grid)
    few = grid[(flows[0], "offload+zc")]
    many = grid[(flows[-1], "offload+zc")]
    # The sweep actually crosses the cache capacity...
    assert flows[0] < few.cache_capacity_flows < flows[-1]
    # ...and past it the cache *does* cliff: the mix's re-access
    # distance exceeds capacity for all but the hottest flows.
    assert few.cache_miss_rate < 0.15
    assert many.cache_miss_rate > 0.5
    # Yet goodput does not cliff (the miss is per burst, not per packet)
    # and offload still beats software TLS by a wide margin everywhere.
    assert many.goodput_gbps > 0.5 * few.goodput_gbps
    for n in flows:
        assert grid[(n, "offload+zc")].goodput_gbps > 5 * grid[(n, "https")].goodput_gbps
    # Same seed, same mix: the traffic process is identical across
    # variants (the cache never influences the generator's draws).
    for n in flows:
        assert grid[(n, "offload+zc")].events_fired == grid[(n, "https")].events_fired


FIG19_XL = Figure(
    "fig19_xl", product((16384, 32768, 65536, 131072), VARIANTS), run_point,
    fields(lambda p: f"f{p[0]}.{p[1]}", "mean_burst", gbps="goodput_gbps", miss_rate="cache_miss_rate",
           dma_mb="miss_dma_mb"),
    table, check,
    # Quick keeps the two sides of the cliff (16 K fits, 64 K thrashes);
    # the full sweep adds the shoulder and the 128 K far side.
    quick=product((16384, 65536), VARIANTS), meta=meta,
)
