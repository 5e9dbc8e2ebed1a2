"""Figure 19 XL: the context-cache eviction cliff at datacenter flow
counts (16 K..128 K concurrent flows against the full 4 MiB cache).

Unlike test_fig19_scalability (real TCP+TLS, both axes scaled down 16x),
this sweep keeps the cache at paper scale and drives it with the
heavy-tailed multi-tenant flow mix of repro.experiments.scale_mix: the
miss rate falls off a cliff once the concurrent set outgrows ~20 K
flows, while goodput degrades gently because only a burst's first
packet pays the miss.
"""

from benchlib import QUICK
from repro.exec import run_grid_dict
from repro.experiments.scale_mix import run_mix_point
from repro.harness.report import Table

# Quick keeps the two sides of the cliff (16 K fits, 64 K thrashes);
# the full sweep adds the shoulder and the 128 K far side.
FLOWS = (16384, 65536) if QUICK else (16384, 32768, 65536, 131072)
VARIANTS = ("offload+zc", "https")


def run_point(point):
    flows, variant = point
    return run_mix_point(flows, variant=variant)


def sweep():
    points = [(flows, variant) for flows in FLOWS for variant in VARIANTS]
    return run_grid_dict(points, run_point)


def test_fig19_xl(benchmark, emit):
    grid = benchmark.pedantic(sweep, rounds=1, iterations=1)
    cache_flows = grid[(FLOWS[0], "offload+zc")].cache_capacity_flows
    table = Table(
        ["flows", "variant", "Gbps", "mean burst", "ctx miss %", "ctx DMA MB"],
        title=f"Figure 19 XL: datacenter flow mix (NIC cache ~{cache_flows} flows)",
    )
    metrics = {}
    for flows in FLOWS:
        for variant in VARIANTS:
            p = grid[(flows, variant)]
            table.row(
                flows,
                variant,
                p.goodput_gbps,
                p.mean_burst,
                f"{100 * p.cache_miss_rate:.1f}%",
                f"{p.miss_dma_mb:.1f}",
            )
            key = f"f{flows}.{variant}"
            metrics[f"{key}.gbps"] = p.goodput_gbps
            metrics[f"{key}.miss_rate"] = p.cache_miss_rate
            metrics[f"{key}.mean_burst"] = p.mean_burst
            metrics[f"{key}.dma_mb"] = p.miss_dma_mb
    emit(
        "fig19_xl",
        table.render(),
        metrics=metrics,
        meta={"cache_capacity_flows": cache_flows},
    )

    few = grid[(FLOWS[0], "offload+zc")]
    many = grid[(FLOWS[-1], "offload+zc")]
    # The sweep actually crosses the cache capacity...
    assert FLOWS[0] < few.cache_capacity_flows < FLOWS[-1]
    # ...and past it the cache *does* cliff: the mix's re-access
    # distance exceeds capacity for all but the hottest flows.
    assert few.cache_miss_rate < 0.15
    assert many.cache_miss_rate > 0.5
    # Yet goodput does not cliff (the miss is per burst, not per packet)
    # and offload still beats software TLS by a wide margin everywhere.
    assert many.goodput_gbps > 0.5 * few.goodput_gbps
    for flows in FLOWS:
        assert grid[(flows, "offload+zc")].goodput_gbps > 5 * grid[(flows, "https")].goodput_gbps
    # Same seed, same mix: the traffic process is identical across
    # variants (the cache never influences the generator's draws).
    for flows in FLOWS:
        assert grid[(flows, "offload+zc")].events_fired == grid[(flows, "https")].events_fired
