"""One declaration per paper output, and the one driver that runs it.

Every ``benchmarks/test_*.py`` declares its tables and figures as
module-level :class:`Figure` records, and ``conftest.py`` collects each
as a test that calls :func:`run_figure`.  ``python -m repro.obs.regress``
compares every JSON the driver writes with ``benchmarks/baseline.json``
at exact equality.  ``REPRO_BENCH_QUICK=1`` runs each figure's ``quick``
grid under a ``_quick``-suffixed name; a figure without one is skipped.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.exec import run_grid_dict
from repro.harness.report import Table, ratio_label
from repro.obs.bench import write_bench_json

QUICK = os.environ.get("REPRO_BENCH_QUICK", "").lower() in ("1", "true", "yes", "on")
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass(frozen=True)
class Figure:
    """One paper output.

    ``run`` maps a grid point to its result and must be a module-level
    function (points may run in forked workers).  ``metrics`` maps the
    ``{point: result}`` dict to the flat numbers the baseline gates;
    ``table(metrics, results)`` renders the ``.txt`` from them (the
    results give row order and the few display-only cells); ``check``
    holds the shape assertions.  An empty grid tabulates static data.
    """

    name: str
    grid: Sequence
    run: Optional[Callable[[Any], Any]]
    metrics: Callable[[dict], dict]
    table: Callable[[dict, dict], str]
    check: Callable[[dict], None]
    quick: Optional[Sequence] = None
    meta: Callable[[dict], Optional[dict]] = lambda results: None


def run_figure(fig: Figure, quick: bool = QUICK, workers: Optional[int] = None, out_dir: str = OUT_DIR) -> None:
    """Run ``fig`` through ``repro.exec``, write ``<name>.txt`` and ``<name>.json``
    from the same metrics, then assert the figure's shape."""
    results = run_grid_dict(fig.quick if quick else fig.grid, fig.run, workers=workers)
    metrics = fig.metrics(results)
    text = fig.table(metrics, results)
    name = f"{fig.name}_quick" if quick else fig.name
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")
    write_bench_json(out_dir, name, metrics, fig.meta(results))
    print(f"\n=== {name} ===\n{text}")
    fig.check(results)


def product(*axes) -> list:
    """Grid points: every combination of the axes, the first varying slowest."""
    return list(itertools.product(*axes))


def axis(results, i: int = 0) -> list:
    """The distinct values of coordinate ``i`` of the grid's points, in grid order."""
    return list(dict.fromkeys(point[i] for point in results))


def fields(key: Callable[[Any], str], *attrs: str, **renamed: str) -> Callable[[dict], dict]:
    """A metrics extractor: attributes of each point's result, as ``<key(point)>.<attr>``
    (``renamed`` maps a metric name to the attribute it reads)."""
    names = {**{a: a for a in attrs}, **renamed}
    return lambda grid: {f"{key(p)}.{n}": getattr(run, a) for p, run in grid.items() for n, a in names.items()}


def loss_pct(loss: float) -> str:
    """Stable metric-key fragment for a loss point (``loss3`` for 3%)."""
    return f"loss{round(100 * loss)}"


#: The offload classes of a TLS record, in the order the tables show them.
KINDS = ("full", "partial", "none")


def record_mix(run) -> dict:
    """An iperf run's TLS records as fractions: entirely / partially / not offloaded."""
    total = max(1, sum(run.records.values()))
    return {k: v / total for k, v in run.records.items()}


#: Goodput and busy cores per ``(cores, size, variant)`` point of Figures 12-15.
app_metrics = fields(lambda p: f"{p[1] // 1024}k.{p[2]}", "goodput_gbps", "busy_cores")


def gain_table(title: str, unit: str, paper: dict):
    """The 1-core table of Figures 12, 14 and 15: baseline vs offload goodput per size."""

    def table(m, grid):
        t = Table([unit, "baseline Gbps", "offload Gbps", "gain", "paper"], title=title)
        for size in axis(grid, 1):
            base, off = (m[f"{size // 1024}k.{v}.goodput_gbps"] for v in ("baseline", "offload"))
            t.row(f"{size // 1024}KiB", base, off, ratio_label(off, base), paper[size])
        return t.render()

    return table


def busy_table(title: str, unit: str):
    """The 8-core table of Figures 12, 14 and 15: goodput and busy cores per size."""

    def table(m, grid):
        t = Table([unit, "baseline Gbps", "offload Gbps", "baseline busy", "offload busy"], title=title)
        for size in axis(grid, 1):
            cols = ("goodput_gbps", "busy_cores")
            t.row(f"{size // 1024}KiB", *(m[f"{size // 1024}k.{v}.{c}"] for c in cols for v in ("baseline", "offload")))
        return t.render()

    return table
