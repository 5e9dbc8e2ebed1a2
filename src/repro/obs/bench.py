"""Machine-readable benchmark output.

Every paper output the benchmark suite declares (a ``Figure`` in
``benchmarks/benchlib.py``) is written twice from the same metrics: the
human-readable table as ``benchmarks/out/<name>.txt`` and the metrics
as ``benchmarks/out/<name>.json``, via :func:`write_bench_json`.  The
JSON is what ``python -m repro.obs.regress`` compares, at exact
equality, with ``benchmarks/baseline.json``.

Schema (version 1)::

    {
      "schema": 1,
      "name": "fig16_tx_loss",
      "metrics": {"loss0.tcp_gbps": 6.35, ...},   # flat scalars
      "meta": {...}                                # optional free-form
    }
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional, Union

SCHEMA_VERSION = 1

Number = Union[int, float]


def bench_record(name: str, metrics: dict, meta: Optional[dict] = None) -> dict:
    """Validate and shape one benchmark's machine-readable record."""
    clean: dict[str, Number] = {}
    for key, value in metrics.items():
        if not isinstance(key, str):
            raise TypeError(f"{name}: metric names must be strings, got {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"{name}: metric {key!r} must be a number, got {value!r}")
        clean[key] = value
    record: dict[str, Any] = {"schema": SCHEMA_VERSION, "name": name, "metrics": clean}
    if meta:
        record["meta"] = meta
    return record


def write_bench_json(out_dir: str, name: str, metrics: dict, meta: Optional[dict] = None) -> str:
    """Write ``<out_dir>/<name>.json``; returns the path written."""
    record = bench_record(name, metrics, meta)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_bench_json(path: str) -> dict:
    """Load and validate one emitted benchmark record."""
    with open(path) as fh:
        record = json.load(fh)
    if record.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema {record.get('schema')!r}")
    if not isinstance(record.get("metrics"), dict):
        raise ValueError(f"{path}: missing metrics mapping")
    return record
