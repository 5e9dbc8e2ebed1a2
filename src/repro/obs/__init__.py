"""Observability: metrics, tracing, machine-readable benchmark output.

The paper's argument is quantitative; this package is how the
reproduction keeps itself honest about it.  Three pieces:

- :class:`Obs` (``repro.obs.core``): per-run counters/gauges/histograms
  plus a Chrome ``trace_event`` tracer, attached to the simulator as
  ``sim.obs`` and wired through the NIC datapath, the TCP stack, and
  the L5P adapters.  ``None`` (the default) means every instrumentation
  site is a single pointer check — no overhead when off.
- ``repro.obs.bench``: the ``benchmarks/out/<name>.json`` metrics
  schema written next to each figure's human-readable table.
- ``repro.obs.regress``: the CI perf gate — ``python -m
  repro.obs.regress`` diffs a run against ``benchmarks/baseline.json``
  at exact equality.
"""

from repro.obs.bench import bench_record, load_bench_json, write_bench_json
from repro.obs.core import Obs
from repro.obs.metrics import Cell, Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Tracer

__all__ = [
    "Obs",
    "Cell",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "bench_record",
    "load_bench_json",
    "write_bench_json",
]
