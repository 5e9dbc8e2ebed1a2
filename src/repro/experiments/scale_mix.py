"""Datacenter-scale multi-tenant flow mix (Figure 19 XL).

The paper's Figure 19 sweeps 64 K..128 K persistent connections against
the NIC's 4 MiB context cache (~20 K flows at 208 B each).  The default
reproduction (:mod:`repro.experiments.scalability`) carries real TCP+TLS
state per connection and therefore scales *both* axes down 16x.  This
module keeps the cache at **full scale** and abstracts the transport
instead: each flow is one context entry in a :class:`~repro.nic.FlowTable`,
driven by a heavy-tailed multi-tenant burst process through the
simulator's timing wheel.  The context cache, the PCIe byte accounting,
the flow table, and the event scheduler are the real components; only
per-packet TCP/TLS processing is summarized into per-burst packet/byte
counts — which is exactly the level at which §6.5 reasons about cache
behavior ("only a batch's first packet misses").

The mix is deliberately adversarial to the LRU: tenants get Zipf-skewed
activity, per-flow burst cadence is Pareto-tailed, and a churn fraction
of bursts closes the flow and installs a fresh context.  Below cache
capacity the miss rate is cold-misses only; past ~20 K concurrent flows
the working set no longer fits and the miss rate jumps off a cliff,
while goodput degrades only gently because the miss is paid once per
burst, not once per packet.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.context import CONTEXT_BYTES
from repro.nic.cache import ContextCache
from repro.nic.flow_table import FlowTable
from repro.nic.pcie import PcieModel
from repro.sim import Simulator

#: Per-packet wire payload (standard MSS with TLS record framing).
MSS_BYTES = 1448
#: NIC pipeline time per offloaded packet (~100 Gb/s line rate).
OFFLOAD_PKT_NS = 120
#: Host-memory context fetch on a cache miss (PCIe round trip), paid
#: once per burst when the first packet misses.
MISS_FETCH_NS = 1000
#: Software (https) per-packet cost: ~3.2 cycles/B crypto+copy at 2 GHz.
SW_PKT_NS = int(MSS_BYTES * 3.2 / 2.0)

VARIANTS = ("offload+zc", "https")


class MixFlow:
    """One live flow of the mix: a 208 B NIC context stand-in."""

    __slots__ = ("ctx_id", "tenant", "interval")

    def __init__(self, ctx_id: int, tenant: int, interval: float):
        self.ctx_id = ctx_id
        self.tenant = tenant
        self.interval = interval


@dataclass
class MixPoint:
    """One (flows, variant) point of the fig19_xl sweep."""

    flows: int
    variant: str
    tenants: int
    bursts: int
    pkts: int
    mean_burst: float
    goodput_gbps: float
    cache_miss_rate: float
    miss_dma_mb: float
    churn_installs: int
    cache_capacity_flows: int
    events_fired: int


def _tenant_intervals(tenants: int, base: float) -> list:
    """Zipf-skewed per-tenant mean burst intervals: tenant 0 is the
    hottest, the tail barely speaks.  Normalized so the *mix-wide* mean
    interval stays ``base`` regardless of tenant count."""
    weights = [(t + 1) ** -1.1 for t in range(tenants)]
    mean_w = sum(weights) / tenants
    return [base * mean_w / w for w in weights]


def run_mix_point(
    flows: int,
    variant: str = "offload+zc",
    tenants: int = 32,
    bursts_per_flow: float = 4.0,
    churn: float = 0.02,
    duration: float = 20e-3,
    cache_bytes: int = 4 * 1024 * 1024,
    seed: int = 0,
) -> MixPoint:
    """Drive ``flows`` concurrent flows for ``duration`` simulated
    seconds and report cache/goodput behavior.

    ``variant="offload+zc"`` runs every burst's first packet through the
    real :class:`ContextCache`; ``"https"`` models the software path
    (no NIC context state, per-packet crypto cost instead).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r} (one of {VARIANTS})")
    sim = Simulator(seed=seed)
    pcie = PcieModel()
    cache = ContextCache(pcie, capacity_bytes=cache_bytes) if variant == "offload+zc" else None
    table: FlowTable = FlowTable()
    layout = sim.substream("mix:layout")
    traffic = sim.substream("mix:traffic")

    base_interval = duration / bursts_per_flow
    tenant_interval = _tenant_intervals(tenants, base_interval)
    tenant_of = layout.choices(
        range(tenants), weights=[(t + 1) ** -1.1 for t in range(tenants)], k=flows
    )

    stats = {"bursts": 0, "pkts": 0, "bytes": 0, "service_ns": 0}
    next_ctx_id = flows  # fresh IDs for churn-installed replacements

    def new_flow(ctx_id: int, tenant: int) -> MixFlow:
        # Pareto-tailed per-flow cadence around the tenant mean: a few
        # hot flows burst constantly, a long tail is nearly idle (the
        # normalization keeps the per-flow mean at the tenant mean).
        interval = tenant_interval[tenant] * layout.paretovariate(4.0) * 0.75
        flow = MixFlow(ctx_id, tenant, interval)
        table[ctx_id] = flow
        return flow

    def burst(flow: MixFlow) -> None:
        nonlocal next_ctx_id
        # Heavy-tailed batch size (paper: 8..48 packets per batch).
        size = min(64, int(4 * traffic.paretovariate(1.5)))
        stats["bursts"] += 1
        stats["pkts"] += size
        stats["bytes"] += size * MSS_BYTES
        if cache is not None:
            # Batching is the §6.5 argument: only the burst's first
            # packet can miss; the rest find the context resident.
            hit = cache.access(flow)
            stats["service_ns"] += size * OFFLOAD_PKT_NS + (0 if hit else MISS_FETCH_NS)
        else:
            stats["service_ns"] += size * SW_PKT_NS
        if churn and traffic.random() < churn:
            # Flow closes; a fresh context (new tenant draw kept — the
            # tenant keeps its connection count) replaces it.
            table.pop(flow.ctx_id)
            if cache is not None:
                cache.evict(flow)
            replacement = new_flow(next_ctx_id, flow.tenant)
            next_ctx_id += 1
            sim.schedule(replacement.interval * traffic.uniform(0.8, 1.2), burst, replacement)
            return
        # Jittered-regular cadence: a persistent connection serves
        # requests at a steady clip, it does not arrive Poisson.  This
        # is what makes the sweep honest about the cliff — once the
        # concurrent set outgrows the cache, re-access distance exceeds
        # capacity for *every* non-hot flow and the LRU thrashes.
        sim.schedule(flow.interval * traffic.uniform(0.8, 1.2), burst, flow)

    for ctx_id in range(flows):
        flow = new_flow(ctx_id, tenant_of[ctx_id])
        sim.at(layout.uniform(0.0, flow.interval), burst, flow)

    # A telemetry scanner sampling random *positions* — the dense-array
    # access pattern FlowTable.entry_at exists for (O(1) per draw, no
    # key-list materialization at 128 K flows).
    sampled = {"flows": 0, "pkts_estimate": 0}

    def scan() -> None:
        for _ in range(32):
            table.entry_at(traffic.randrange(len(table)))
            sampled["flows"] += 1
        sim.schedule(duration / 16, scan)

    sim.schedule(duration / 16, scan)
    sim.run(until=duration)

    misses = cache.misses if cache is not None else 0
    accesses = (cache.hits + cache.misses) if cache is not None else 0
    service_s = stats["service_ns"] * 1e-9
    goodput_gbps = stats["bytes"] * 8 / service_s / 1e9 if service_s else 0.0
    return MixPoint(
        flows=flows,
        variant=variant,
        tenants=tenants,
        bursts=stats["bursts"],
        pkts=stats["pkts"],
        mean_burst=stats["pkts"] / stats["bursts"] if stats["bursts"] else 0.0,
        goodput_gbps=goodput_gbps,
        cache_miss_rate=misses / accesses if accesses else 0.0,
        miss_dma_mb=pcie.bytes_by_category["context"] / 1e6,
        churn_installs=table.installed_total - flows,
        cache_capacity_flows=(cache_bytes // CONTEXT_BYTES),
        events_fired=sim.events_fired,
    )
