"""Figure 3: per-year Linux TCP/IP LoC, total and modified — the
maintenance burden a dependent (TOE-style) offload would freeze into
silicon.  Static data: no simulated points."""

from benchlib import Figure
from repro.data.linux_loc import (
    COMPONENTS,
    LINUX_TCP_LOC,
    modified_by_year,
    modified_fraction_range,
    totals_by_year,
)
from repro.harness.report import Table


def metrics(_):
    totals, modified = dict(totals_by_year()), dict(modified_by_year())
    return {f"{year}.{k}_loc": v[year] for year in totals for k, v in (("total", totals), ("modified", modified))}


def table(m, _):
    table = Table(
        ["year", "total LoC", "modified LoC"],
        title="Figure 3: Linux TCP/IP processing code per year",
    )
    for year, _ in totals_by_year():
        table.row(year, m[f"{year}.total_loc"], m[f"{year}.modified_loc"])
    return table.render()


def check(_):
    # Totals grow monotonically (the stack keeps evolving)...
    values = [t for _, t in totals_by_year()]
    assert values == sorted(values)
    assert values[0] > 200_000 and values[-1] > values[0]
    # ...and each component churns 5-25% per year (the paper's claim).
    lo, hi = modified_fraction_range()
    assert 0.05 <= lo and hi <= 0.25
    assert set(LINUX_TCP_LOC[2015]) == set(COMPONENTS)


FIG03 = Figure("fig03_linux_loc", (), None, metrics, table, check)
