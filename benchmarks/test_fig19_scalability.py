"""Figure 19: scaling persistent HTTPS connections past the NIC's
context-cache capacity (nginx, C2, 8 cores, 256 KiB files).

Scaled 16x from the paper (see repro.experiments.scalability): the sweep
crosses the cache capacity the same way 64..128K connections cross the
real 4 MiB / ~20K-flow cache.
"""

from benchlib import Figure, axis, fields, product
from repro.experiments.scalability import run_scale_point
from repro.harness.report import Table

VARIANTS = ("https", "offload+zc", "http")


def run_point(point):
    conns, variant = point
    return run_scale_point(conns, variant=variant, measure=8e-3)


def meta(grid):
    return {"cache_capacity_flows": grid[(axis(grid)[0], "offload+zc")].cache_capacity_flows}


def table(m, grid):
    table = Table(
        ["conns", "variant", "Gbps", "busy cores", "rx batch", "ctx miss %"],
        title=f"Figure 19: connection scaling (NIC cache ~{meta(grid)['cache_capacity_flows']} flows)",
    )
    for conns, variant in grid:
        key = f"c{conns}.{variant}"
        cells = (m[f"{key}.{col}"] for col in ("gbps", "busy_cores", "rx_batch"))
        table.row(conns, variant, *cells, f"{100 * m[f'{key}.miss_rate']:.1f}%")
    return table.render()


def check(grid):
    connections = axis(grid)
    # Offload keeps beating https at every connection count, even far
    # beyond the cache capacity (the paper's headline: no cliff).
    for conns in connections:
        zc = grid[(conns, "offload+zc")].goodput_gbps
        https = grid[(conns, "https")].goodput_gbps
        assert zc > https * 1.3
    # The cache does overflow (misses appear once conns >> capacity)...
    few = grid[(connections[0], "offload+zc")]
    many = grid[(connections[-1], "offload+zc")]
    assert connections[-1] > few.cache_capacity_flows
    assert many.cache_miss_rate > few.cache_miss_rate
    # ...yet throughput does not fall off a cliff (within 40% of the
    # small-count run), thanks to batching: only a batch's first packet
    # misses.
    assert many.goodput_gbps > 0.6 * few.goodput_gbps
    # Batching weakens as connections grow (paper: 48 -> 8 per batch).
    assert many.mean_rx_batch <= few.mean_rx_batch * 1.5


FIG19 = Figure(
    "fig19_scalability", product((64, 512, 2048), VARIANTS), run_point,
    fields(lambda p: f"c{p[0]}.{p[1]}", "busy_cores", gbps="goodput_gbps", rx_batch="mean_rx_batch",
           miss_rate="cache_miss_rate"),
    table, check,
    # The quick sweep keeps both endpoints: the cache-overflow crossing
    # is the point of the experiment and needs the largest count.
    quick=product((64, 2048), VARIANTS), meta=meta,
)
