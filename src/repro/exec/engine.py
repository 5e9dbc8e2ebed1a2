"""The grid engine: fan independent simulator runs out over processes.

Model
-----
A *grid* is an ordered sequence of points; a *runner* is a module-level
callable ``runner(point) -> result``.  Each point describes one complete
simulation (typically a ``TestbedConfig``/``FaultPlan`` plus workload
parameters) and every stochastic draw inside it comes from the run seed
it carries — so a point's result is a pure function of the point, and
executing points concurrently in separate processes cannot change any
result.  :func:`run_grid` exploits exactly that: with ``workers > 1`` it
ships pickled points to forked worker processes; with ``workers <= 1``
(the default, and whatever ``REPRO_EXEC_WORKERS`` forces) it calls the
runner in-process, in order — the old serial path.  Both paths return
results in point order, so merged output is bit-identical either way.

Failure contract
----------------
A raising point never poisons its siblings: every other point still
completes, and the run then fails loudly with a :class:`GridError`
listing each failed point's id and its full worker traceback.

Pickling contract
-----------------
``runner`` and every point must be picklable, which in practice means:
the runner is a top-level ``def`` in an importable module (no lambdas or
closures), and points are built from plain data — tuples, dicts,
dataclasses like ``TestbedConfig``/``FaultPlan``.  Violations surface as
an immediate ``GridError`` naming the offending point, not a hang.

One pool per grid
-----------------
A parallel grid forks a fresh ``ProcessPoolExecutor`` (fork context, so
workers inherit every module the parent has imported) and closes it
when the grid ends; no pool outlives its grid.  Points are dispatched
one per task, in order — each is a whole simulation, so per-task IPC is
noise.  A worker that dies mid-grid breaks the executor, and every
point it had not finished is reported in the :class:`GridError`.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Optional, Sequence

#: Environment knob: default worker count for every grid in the process.
WORKERS_ENV = "REPRO_EXEC_WORKERS"


def default_workers() -> int:
    """Worker count from ``REPRO_EXEC_WORKERS``; 1 (serial) when unset.

    ``auto`` means one worker per CPU.  Anything else must be a positive
    integer — a typo'd value fails loudly here rather than silently
    running serial.
    """
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    if raw.lower() == "auto":
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{WORKERS_ENV} must be a positive integer or 'auto', got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{WORKERS_ENV} must be >= 1, got {value}")
    return value


def point_seed(base_seed: int, key: Any) -> int:
    """A stable per-point seed substream, mirroring ``Simulator.substream``.

    Derived from the textual form of ``(base_seed, key)`` so the same
    point gets the same seed in any process, any worker count, any run.
    """
    import hashlib

    digest = hashlib.sha256(f"{base_seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class PointFailure(RuntimeError):
    """One grid point's runner raised (or could not be shipped)."""

    def __init__(self, key: Any, worker_traceback: str):
        self.key = key
        self.worker_traceback = worker_traceback
        super().__init__(f"grid point {key!r} failed:\n{worker_traceback}")


class GridError(RuntimeError):
    """One or more grid points failed; every other point completed."""

    def __init__(self, failures: Sequence[PointFailure], completed: int, total: int):
        self.failures = list(failures)
        self.completed = completed
        self.total = total
        keys = ", ".join(repr(f.key) for f in self.failures)
        detail = "\n\n".join(f.worker_traceback.rstrip() for f in self.failures)
        super().__init__(
            f"{len(self.failures)}/{total} grid point(s) failed "
            f"({completed} completed): {keys}\n{detail}"
        )


def _call_point(runner: Callable[[Any], Any], point: Any) -> tuple:
    """Worker-side wrapper: never raises; returns (status, payload)."""
    try:
        return "ok", runner(point)
    except BaseException:  # noqa: B036 - a crashing point must not kill the pool
        return "err", traceback.format_exc()
    finally:
        # A finished testbed is one big reference cycle (hosts <->
        # connections <-> timers) holding every payload it buffered, and
        # the generational collector does not reach it before the next
        # point has built its own: without this a process grows by one
        # testbed per point it runs.  Only a point that promoted objects
        # into the oldest generation pays for the full collection, so a
        # grid of trivial points runs at the speed it always did.
        if gc.get_count()[2]:
            gc.collect()


def _point_key(point: Any, index: int, key: Optional[Callable[[Any], Any]]) -> Any:
    if key is not None:
        return key(point)
    return point if isinstance(point, (str, int, float, tuple, frozenset)) else index


def shutdown_pool() -> None:
    """No-op: every grid closes its own pool (``benchmarks/perf`` still calls this)."""


def _run_serial(points: list, runner: Callable[[Any], Any]) -> list:
    """The plain in-process path; returns (status, payload) per point."""
    return [_call_point(runner, point) for point in points]


def _run_pooled(points: list, runner: Callable[[Any], Any], workers: int) -> list:
    """Run the grid on a pool forked for it; returns (status, payload) per point.

    A point whose result cannot come back — its worker died, breaking
    the pool for every point not yet finished — is reported as failed.
    """
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(_call_point, runner, point) for point in points]
        raw = []
        for future in futures:
            try:
                raw.append(future.result())
            except Exception:
                raw.append(("err", traceback.format_exc()))
    return raw


def run_grid(
    points: Sequence[Any],
    runner: Callable[[Any], Any],
    workers: Optional[int] = None,
    key: Optional[Callable[[Any], Any]] = None,
) -> list:
    """Run ``runner`` over every point; returns results in point order.

    ``workers=None`` reads ``REPRO_EXEC_WORKERS`` (default 1 = serial);
    ``workers=1`` is the plain sequential path, guaranteed unchanged from
    pre-engine behavior.  ``workers > 1`` (capped at the point count)
    runs the grid on a pool forked for this call and closed before it
    returns.  ``key`` labels points in failure reports (the point itself
    is used when it is primitive/tuple, else its index).  Raises
    :class:`GridError` after all points have been attempted if any
    failed, including points lost to a worker that died.
    """
    points = list(points)
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, max(1, len(points)))

    if workers == 1:
        raw = _run_serial(points, runner)
    else:
        try:
            pickle.dumps((runner, points))
        except Exception as exc:
            raise GridError(
                [PointFailure("<pickling>", f"grid is not picklable: {exc!r}")], 0, len(points)
            ) from exc
        raw = _run_pooled(points, runner, workers)

    failures = [
        PointFailure(_point_key(points[index], index, key), payload)
        for index, (status, payload) in enumerate(raw)
        if status != "ok"
    ]
    if failures:
        raise GridError(failures, completed=len(points) - len(failures), total=len(points))
    return [payload for _status, payload in raw]


def run_grid_dict(
    points: Sequence[Any],
    runner: Callable[[Any], Any],
    workers: Optional[int] = None,
) -> dict:
    """:func:`run_grid`, merged as ``{point: result}`` in point order.

    Points must be hashable and unique; the mapping's insertion order is
    the grid order, so downstream serialization (bench JSON, reports) is
    identical between serial and parallel runs.
    """
    points = list(points)
    if len(set(points)) != len(points):
        raise ValueError("grid points must be unique to key a result dict")
    results = run_grid(points, runner, workers=workers)
    return dict(zip(points, results))
