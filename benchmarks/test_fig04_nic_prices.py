"""Figure 4 + Table 2: ConnectX prices track speed and port count, not
offload generation — ASIC offloads come 'essentially for free'.  Static
data: no simulated points."""

from benchlib import Figure
from repro.data.nic_prices import (
    CONNECTX_OFFLOADS,
    CONNECTX_PRICES,
    price_determinants_hold,
    price_spread_by_class,
)
from repro.harness.report import Table


def price_metrics(_):
    spread = sorted(price_spread_by_class().items())
    return {f"{speed}g{ports}p.{k}_usd": v for (speed, ports), lo_hi in spread for k, v in zip(("min", "max"), lo_hi)}


def price_table(m, _):
    table = Table(
        ["speed (Gbps)", "ports", "min $", "max $", "spread"],
        title="Figure 4: price spread across generations, per NIC class",
    )
    for speed, ports in sorted(price_spread_by_class()):
        lo, hi = m[f"{speed}g{ports}p.min_usd"], m[f"{speed}g{ports}p.max_usd"]
        table.row(speed, ports, lo, hi, f"{hi / lo:.2f}x")
    return table.render()


def price_check(_):
    # Same speed/ports => similar price despite added offloads (<=20%).
    assert all(hi <= lo * 1.2 for lo, hi in price_spread_by_class().values())
    assert price_determinants_hold()


def offload_table(m, _):
    table = Table(
        ["generation", "year", "offloads added"],
        title="Table 2: ConnectX generations and introduced offloads",
    )
    for gen, (_, offloads) in sorted(CONNECTX_OFFLOADS.items()):
        table.row(gen, m[f"cx{gen}.year"], "; ".join(offloads))
    return table.render()


def offload_check(_):
    years = [year for year, _ in CONNECTX_OFFLOADS.values()]
    assert years == sorted(years)
    assert len(CONNECTX_PRICES) > 15


FIG04 = Figure("fig04_nic_prices", (), None, price_metrics, price_table, price_check)
TAB02 = Figure(
    "tab02_connectx_offloads", (), None,
    lambda _: {f"cx{gen}.year": year for gen, (year, _) in sorted(CONNECTX_OFFLOADS.items())},
    offload_table, offload_check,
)
