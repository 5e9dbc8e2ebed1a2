"""Ablations of the design choices DESIGN.md calls out (not in the
paper's evaluation, but implied by its design discussion):

- deterministic boundary resync (Figure 8b) vs speculation-only,
- the hardware-driven speculation machinery vs none at all,
- sensitivity to the driver's resync-request latency,
- NIC context-cache size vs miss rate,
- TLS record size vs recovery effectiveness under loss.
"""

from benchlib import Figure, fields, record_mix
from repro.experiments.iperf_tls import run_iperf
from repro.experiments.scalability import run_scale_point
from repro.harness.report import Table

LOSS = 0.03
SEED = 41


def _full_fraction(run):
    return record_mix(run)["full"]


def iperf_metrics(label):
    """Goodput, fully offloaded fraction and resyncs of each run, keyed by its row label."""
    return lambda grid: {
        f"{label(point)}.{name}": value
        for point, run in grid.items()
        for name, value in (("gbps", run.goodput_gbps), ("full_frac", _full_fraction(run)), ("resyncs", run.resyncs))
    }


def iperf_table(title, header, label, resyncs=False):
    """One row per run: its label, Gbps, fully offloaded % (and resyncs)."""

    def table(m, grid):
        t = Table([header, "Gbps", "fully offloaded %"] + (["resyncs"] if resyncs else []), title=title)
        for k in map(label, grid):
            extra = [m[f"{k}.resyncs"]] if resyncs else []
            t.row(k, m[f"{k}.gbps"], f"{100 * m[f'{k}.full_frac']:.0f}%", *extra)
        return t.render()

    return table


RECOVERY = {  # row label -> what to switch off
    "full machinery": (),
    "no boundary resync": ("enable_boundary_resync",),
    "no recovery at all": ("enable_boundary_resync", "enable_speculation"),
}


def run_recovery(config):
    def tune(nic):
        for knob in RECOVERY[config]:
            setattr(nic.rx_engine, knob, False)

    return run_iperf("tls-offload", "rx", streams=16, loss=LOSS, seed=SEED, tune_nic=tune)


def recovery_check(grid):
    full = _full_fraction(grid["full machinery"])
    no_boundary = _full_fraction(grid["no boundary resync"])
    none_at_all = _full_fraction(grid["no recovery at all"])
    # The deterministic boundary re-lock carries the recovery: without
    # it, speculation alone cannot keep up at this loss rate (every
    # episode pays the software-confirmation round trip) and with
    # nothing at all the offload dies at the first loss per flow.
    assert full > max(no_boundary, 0.1)
    assert no_boundary >= none_at_all
    assert grid["no boundary resync"].resyncs > 0
    assert grid["no recovery at all"].resyncs == 0
    assert none_at_all < 0.05


ABLATION_RECOVERY = Figure(
    "ablation_recovery", tuple(RECOVERY), run_recovery, iperf_metrics(str),
    iperf_table(f"Ablation: RX recovery machinery at {100 * LOSS:.0f}% loss", "configuration", str, resyncs=True),
    recovery_check,
)


def run_resync_latency(delay_us):
    # Small records make speculation the dominant recovery path
    # (headers are lost along with data), so the request latency
    # actually bites.
    def tune(nic):
        nic.driver.resync_delay_s = delay_us / 1e6

    return run_iperf(
        "tls-offload", "rx", streams=16, loss=LOSS, record_size=2048, seed=SEED, tune_nic=tune
    )


def resync_latency_check(grid):
    # Slower confirmations keep the NIC bypassing longer.
    assert _full_fraction(grid[0]) >= _full_fraction(grid[2000])


ABLATION_RESYNC_LATENCY = Figure(
    "ablation_resync_latency", (0, 500, 2000), run_resync_latency, iperf_metrics("{}us".format),
    iperf_table(f"Ablation: driver resync latency at {100 * LOSS:.0f}% loss", "resync request delay", "{}us".format),
    resync_latency_check,
)


def run_record_size(kib):
    return run_iperf("tls-offload", "rx", streams=16, loss=LOSS, record_size=kib * 1024, seed=SEED)


def record_size_check(grid):
    # Smaller records put more headers on the wire, so after a loss the
    # NIC re-locks sooner (boundary re-locks and partially-past tracking
    # walks find a header within a packet or two) and a larger fraction
    # of records survives fully offloaded.  Note: more headers also mean
    # losses hit headers more often, driving more speculative searches
    # (see the resync counts) — but confirmations resolve quickly.
    assert _full_fraction(grid[2]) > _full_fraction(grid[16])
    assert grid[2].resyncs > grid[16].resyncs


ABLATION_RECORD_SIZE = Figure(
    "ablation_record_size", (2, 8, 16), run_record_size, iperf_metrics("{}KiB".format),
    iperf_table(f"Ablation: record size vs recovery at {100 * LOSS:.0f}% loss", "record size", "{}KiB".format),
    record_size_check,
)


def run_cache_size(scale):
    # Same connection count against shrinking caches.
    return run_scale_point(512, variant="offload+zc", server_cores=4, scale=scale, measure=6e-3)


def cache_size_table(m, grid):
    table = Table(
        ["cache flows", "Gbps", "ctx miss %", "rx batch"],
        title="Ablation: NIC context-cache size, 512 connections",
    )
    for scale in grid:
        key = f"scale{scale}"
        miss = f"{100 * m[f'{key}.cache_miss_rate']:.1f}%"
        table.row(m[f"{key}.cache_capacity_flows"], m[f"{key}.goodput_gbps"], miss, m[f"{key}.mean_rx_batch"])
    return table.render()


def cache_size_check(grid):
    # Misses rise as the cache shrinks below the flow count...
    assert grid[512].cache_miss_rate > grid[4].cache_miss_rate
    # ...but throughput survives (batching hides the misses, §6.5).
    assert grid[512].goodput_gbps > 0.5 * grid[4].goodput_gbps


ABLATION_CACHE_SIZE = Figure(
    "ablation_cache_size", (4, 64, 512), run_cache_size,
    fields("scale{}".format, "cache_capacity_flows", "goodput_gbps", "cache_miss_rate", "mean_rx_batch"),
    cache_size_table, cache_size_check,
)
