"""Ad-hoc parallel sweeps from the command line.

    python -m repro.exec iperf --vary loss=0,0.01,0.03 --vary mode=tcp,tls-offload \
        --fix direction=tx --fix streams=16 --workers 4 --json sweep.json

The positional argument picks a registered experiment runner; every
``--vary key=v1,v2,...`` contributes one grid axis (Cartesian product,
axes in the order given); ``--fix key=value`` pins a parameter for all
points.  Values are coerced ``int`` → ``float`` → ``bool`` → ``str``.
Results print as one line per point and, with ``--json``, are written
keyed and ordered by point — identical for any worker count.

Registered experiments::

    iperf   repro.experiments.iperf_tls.run_iperf     (figs 11, 16-18)
    scale   repro.experiments.scalability.run_scale_point  (fig 19)
    mix     repro.experiments.scale_mix.run_mix_point (fig 19 XL)
    nginx   repro.experiments.nginx_bench.run_nginx   (figs 12-14)
    chaos   repro.faults.chaos.chaos_point            (fault soaks)
    l5p     repro.experiments.l5p_plugins.run_l5p_point  (plugin protocols)
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from typing import Any, Optional

from repro.exec.engine import GridError, default_workers, run_grid

#: experiment name -> "module:callable" (resolved lazily, also in workers).
EXPERIMENTS = {
    "iperf": "repro.experiments.iperf_tls:run_iperf",
    "scale": "repro.experiments.scalability:run_scale_point",
    "mix": "repro.experiments.scale_mix:run_mix_point",
    "nginx": "repro.experiments.nginx_bench:run_nginx",
    "chaos": "repro.faults.chaos:chaos_point",
    "l5p": "repro.experiments.l5p_plugins:run_l5p_point",
}


def _resolve(name: str):
    target = EXPERIMENTS[name]
    module_name, _, attr = target.partition(":")
    module = __import__(module_name, fromlist=[attr])
    return getattr(module, attr)


def coerce(raw: str) -> Any:
    """``int`` → ``float`` → ``bool`` → ``str``, the narrowest that parses."""
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def parse_axis(spec: str) -> tuple[str, list]:
    """``key=v1,v2,...`` -> ``(key, [values])``."""
    key, sep, values = spec.partition("=")
    if not sep or not key or not values:
        raise ValueError(f"expected key=v1,v2,..., got {spec!r}")
    return key, [coerce(v) for v in values.split(",")]


def build_points(axes: list, fixed: dict) -> list:
    """Cartesian product of the vary axes over the fixed parameters.

    Each point is ``(("key", value), ...)`` — a hashable, picklable,
    deterministic identity used for ordering, merging, and failure
    reports.
    """
    keys = [key for key, _ in axes]
    dupes = set(keys) & set(fixed)
    if dupes:
        raise ValueError(f"parameter(s) both varied and fixed: {', '.join(sorted(dupes))}")
    points = []
    for combo in itertools.product(*(values for _, values in axes)):
        params = dict(fixed)
        params.update(zip(keys, combo))
        points.append(tuple(sorted(params.items())))
    return points


def _jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def run_point(task: tuple) -> dict:
    """Module-level runner (picklable): ``(experiment, point) -> dict``."""
    name, point = task
    result = _resolve(name)(**dict(point))
    return _jsonable(result)


def _summarize(result: dict) -> str:
    """First few scalar fields of a result, for the per-point line."""
    parts = []
    for key, value in result.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        parts.append(f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}")
        if len(parts) == 4:
            break
    return " ".join(parts) or "(no scalar fields)"


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec",
        description="Run an experiment grid, optionally over parallel workers.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS), help="registered runner")
    parser.add_argument(
        "--vary",
        action="append",
        default=None,
        metavar="KEY=V1,V2,...",
        help="grid axis (repeatable; Cartesian product in the order given)",
    )
    parser.add_argument(
        "--fix",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="pinned parameter applied to every point (repeatable)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=f"process count (default: $REPRO_EXEC_WORKERS or 1; currently {default_workers()})",
    )
    parser.add_argument("--json", metavar="PATH", help="write full results keyed by point")
    args = parser.parse_args(argv)

    try:
        axes = [parse_axis(spec) for spec in args.vary or []]
        fixed = dict(parse_axis(spec) for spec in args.fix or [])
        fixed = {key: values[0] if len(values) == 1 else values for key, values in fixed.items()}
        points = build_points(axes, fixed)
    except ValueError as exc:
        print(f"exec: {exc}", file=sys.stderr)
        return 2

    tasks = [(args.experiment, point) for point in points]
    try:
        results = run_grid(tasks, run_point, workers=args.workers, key=lambda t: t[1])
    except GridError as exc:
        print(f"exec: {exc}", file=sys.stderr)
        return 1

    merged = {}
    for point, result in zip(points, results):
        label = ", ".join(f"{k}={v}" for k, v in point) or "(defaults)"
        merged[label] = result
        print(f"[{label}] {_summarize(result)}")
    print(f"== {len(points)} point(s), workers={args.workers or default_workers()}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"experiment": args.experiment, "points": merged}, fh, indent=2, sort_keys=False)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
