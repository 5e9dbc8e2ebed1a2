"""Table 4: single synchronous GET latency while cumulatively adding the
TLS, NVMe-TCP copy, and NVMe-TCP CRC offloads (C1 storage)."""

from benchlib import Figure
from repro.experiments.latency import CONFIGS, run_latency_table
from repro.harness.report import Table

PAPER = {  # relative latency vs base, per size
    4 * 1024: {"+TLS": 0.99, "+copy": 0.98, "+CRC": 0.98},
    16 * 1024: {"+TLS": 0.95, "+copy": 0.92, "+CRC": 0.90},
    64 * 1024: {"+TLS": 0.85, "+copy": 0.81, "+CRC": 0.78},
    256 * 1024: {"+TLS": 0.80, "+copy": 0.74, "+CRC": 0.71},
}
LABELS = [label for label, *_ in CONFIGS]  # base, +TLS, +copy, +CRC


def run_point(size):
    """One size's row: ``{config label: Summary of mean latency over 3 seeds}``."""
    return run_latency_table(sizes=(size,), measure=15e-3, seeds=(0, 1, 2))[size]


def metrics(grid):
    m = {}
    for size, row in grid.items():
        for label in LABELS:
            m[f"{size // 1024}k.{label}.mean_s"] = row[label].mean
        m[f"{size // 1024}k.base.rel_stdev"] = row["base"].rel_stdev
    return m


def table(m, grid):
    table = Table(
        ["size", "base us", "+TLS", "+copy", "+CRC", "ratios (measured)", "ratios (paper)"],
        title="Table 4: average GET latency, cumulative offloads (mean of 3 seeds ± rel stdev)",
    )
    for size in grid:
        base, *means = (m[f"{size // 1024}k.{label}.mean_s"] for label in LABELS)
        base_cell = f"{base * 1e6:.0f} ±{100 * m[f'{size // 1024}k.base.rel_stdev']:.1f}%"
        ratios = "/".join(f"{mean / base:.2f}" for mean in means)
        paper = "/".join(f"{PAPER[size][label]:.2f}" for label in LABELS[1:])
        table.row(f"{size // 1024}K", base_cell, *(f"{mean * 1e6:.0f}" for mean in means), ratios, paper)
    return table.render()


def check(results):
    # Shape: each added offload lowers latency, and bigger requests
    # benefit more.
    for row in results.values():
        assert row["+TLS"].mean <= row["base"].mean * 1.02
        assert row["+CRC"].mean <= row["+TLS"].mean * 1.02
    big, small = results[256 * 1024], results[4 * 1024]
    assert big["+CRC"].mean / big["base"].mean < small["+CRC"].mean / small["base"].mean


TAB04 = Figure("tab04_latency", tuple(PAPER), run_point, metrics, table, check)
