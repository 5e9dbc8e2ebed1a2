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
ships pickled points to a ``multiprocessing`` pool; with ``workers <= 1``
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

Pool reuse and the cost model
-----------------------------
Forking a pool costs tens of milliseconds; the engine therefore keeps
ONE process pool alive for the whole parent process and reuses it for
every grid (``shutdown_pool`` tears it down; ``atexit`` does so on
interpreter exit).  The pool is transparently rebuilt when the worker
count changes, when a runner or point type lives in a module imported
*after* the last fork (fresh forks inherit the parent's imports), or
when a previous parallel run broke it.  A small cost model additionally
bypasses the pool whenever parallelism provably cannot win — fewer
points than ``REPRO_EXEC_MIN_POINTS``, or a single-CPU host where fork
and IPC overhead is pure loss — so ``workers > 1`` never runs slower
than serial.  ``force_pool=True`` defeats the bypass for tests that must
exercise the worker path itself.
"""

from __future__ import annotations

import atexit
import gc
import logging
import multiprocessing
import os
import pickle
import sys
import traceback
from typing import Any, Callable, Optional, Sequence

logger = logging.getLogger(__name__)

#: Environment knob: default worker count for every grid in the process.
WORKERS_ENV = "REPRO_EXEC_WORKERS"

#: Environment knob: grids smaller than this run serially even when
#: ``workers > 1`` — pool fork/teardown costs tens of milliseconds, which
#: dwarfs any speedup on a handful of sub-millisecond points.
MIN_POINTS_ENV = "REPRO_EXEC_MIN_POINTS"
DEFAULT_MIN_PARALLEL_POINTS = 4


def min_parallel_points() -> int:
    """Grid-size floor for the pool from ``REPRO_EXEC_MIN_POINTS``.

    Below the floor :func:`run_grid` bypasses the pool entirely (results
    are bit-identical either way, so only wall-clock is at stake).  Set
    to ``0`` or ``1`` to disable the bypass and always honor ``workers``.
    """
    raw = os.environ.get(MIN_POINTS_ENV, "").strip()
    if not raw:
        return DEFAULT_MIN_PARALLEL_POINTS
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{MIN_POINTS_ENV} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{MIN_POINTS_ENV} must be >= 0, got {value}")
    return value


def default_workers() -> int:
    """Worker count from ``REPRO_EXEC_WORKERS``; 1 (serial) when unset.

    ``auto`` means one worker per CPU.  Anything else must be a positive
    integer — a typo'd value fails loudly here rather than silently
    running serial (the interaction with ``REPRO_EXEC_MIN_POINTS`` and
    the single-CPU bypass is documented in docs/performance.md).
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


def _call_point(task: tuple) -> tuple:
    """Worker-side wrapper: never raises, always reports the index."""
    index, runner, point = task
    try:
        return index, "ok", runner(point)
    except BaseException:  # noqa: B036 - a crashing point must not kill the pool
        return index, "err", traceback.format_exc()
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


# ----------------------------------------------------------------------
# persistent worker pool
# ----------------------------------------------------------------------
#: The one process pool for this parent, plus what it was forked with:
#: worker count and the module names alive at fork time.  ``None`` until
#: the first parallel grid; rebuilt (never duplicated) on mismatch.
_pool: Optional[Any] = None
_pool_workers: int = 0
_pool_modules: frozenset = frozenset()
_pool_pid: int = 0


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (idempotent).

    Registered with ``atexit``; also useful in tests.  A forked child
    that inherited the handle only drops its reference — terminating
    from a non-owner would tear down the *parent's* workers.
    """
    global _pool, _pool_workers, _pool_modules
    pool, _pool = _pool, None
    owner = _pool_pid == os.getpid()
    _pool_workers = 0
    _pool_modules = frozenset()
    if pool is not None and owner:
        try:
            pool.terminate()
            pool.join()
        except Exception:  # pragma: no cover - teardown best effort
            pass


atexit.register(shutdown_pool)


def _pool_for(workers: int, needed_modules: set) -> Any:
    """The persistent pool, rebuilt if stale for this grid.

    Stale means: different worker count, or the grid references modules
    (runner / point classes) imported after the last fork — fork children
    resolve pickled references against the modules they inherited, so a
    fresh fork is the only way to see new ones.
    """
    global _pool, _pool_workers, _pool_modules, _pool_pid
    if _pool is not None and (
        _pool_pid != os.getpid() or _pool_workers != workers or not needed_modules <= _pool_modules
    ):
        shutdown_pool()
    if _pool is None:
        # fork: workers inherit the parent's imported modules, so runners
        # defined in pytest-loaded benchmark modules resolve by name.
        ctx = multiprocessing.get_context("fork")
        modules = frozenset(sys.modules)
        _pool = ctx.Pool(processes=workers)
        _pool_workers = workers
        _pool_modules = modules
        _pool_pid = os.getpid()
    return _pool


def auto_chunksize(npoints: int, workers: int) -> int:
    """Points dispatched per IPC round-trip.

    ~4 chunks per worker balances dispatch overhead against stealing:
    big grids amortize the pickling/IPC cost over many points per
    message, while heterogeneous-cost points can still rebalance across
    the last few chunks.  Small grids degrade to chunksize 1 (pure
    work-stealing), which is what they had before.
    """
    return max(1, npoints // (workers * 4))


def _run_serial(points: list, runner: Callable[[Any], Any]) -> list:
    """The plain in-process path; returns raw (index, status, payload)."""
    return [_call_point((index, runner, point)) for index, point in enumerate(points)]


def _run_pooled(points: list, runner: Callable[[Any], Any], workers: int) -> list:
    """Dispatch the grid to the persistent pool in auto-sized chunks.

    A broken pool (a worker was killed, or a stale fork cannot resolve a
    pickled reference) is rebuilt and the whole grid retried once —
    points are pure functions of themselves, so re-running them cannot
    change any result.
    """
    tasks = [(index, runner, point) for index, point in enumerate(points)]
    needed = {type(point).__module__ for point in points}
    needed.add(getattr(runner, "__module__", "__main__"))
    chunksize = auto_chunksize(len(points), workers)
    for attempt in (1, 2):
        pool = _pool_for(workers, needed)
        try:
            return list(pool.imap_unordered(_call_point, tasks, chunksize=chunksize))
        except Exception:
            shutdown_pool()
            if attempt == 2:
                raise
            logger.warning(
                "run_grid: worker pool failed mid-grid; rebuilding and retrying once",
                exc_info=True,
            )
    raise AssertionError("unreachable")  # pragma: no cover


def run_grid(
    points: Sequence[Any],
    runner: Callable[[Any], Any],
    workers: Optional[int] = None,
    key: Optional[Callable[[Any], Any]] = None,
    force_pool: bool = False,
) -> list:
    """Run ``runner`` over every point; returns results in point order.

    ``workers=None`` reads ``REPRO_EXEC_WORKERS`` (default 1 = serial);
    ``workers=1`` is the plain sequential path, guaranteed unchanged from
    pre-engine behavior.  With ``workers > 1`` the cost model still takes
    the serial path whenever the pool provably cannot win — fewer points
    than ``REPRO_EXEC_MIN_POINTS`` (default 4), or a single-CPU host —
    with an INFO log noting the bypass; results are bit-identical either
    way, so only wall-clock is at stake.  ``force_pool=True`` skips the
    cost model (tests that must cover the worker path).  Parallel grids
    reuse one persistent forked pool across calls and dispatch in
    :func:`auto_chunksize` batches.  ``key`` labels points in failure
    reports (the point itself is used when it is primitive/tuple, else
    its index).  Raises :class:`GridError` after all points have been
    attempted if any failed.
    """
    points = list(points)
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, max(1, len(points)))
    if workers > 1 and not force_pool:
        if len(points) < min_parallel_points():
            logger.info(
                "run_grid: %d point(s) < %s=%d; running serially (pool startup "
                "would cost more than it saves; results are identical either way)",
                len(points),
                MIN_POINTS_ENV,
                min_parallel_points(),
            )
            workers = 1
        elif (os.cpu_count() or 1) < 2:
            logger.info(
                "run_grid: single-CPU host; running %d point(s) serially "
                "(fork+IPC overhead is pure loss with nothing to overlap)",
                len(points),
            )
            workers = 1

    if workers == 1:
        raw = _run_serial(points, runner)
    else:
        try:
            pickle.dumps([(index, runner, point) for index, point in enumerate(points)])
        except Exception as exc:
            raise GridError(
                [PointFailure("<pickling>", f"grid is not picklable: {exc!r}")], 0, len(points)
            ) from exc
        raw = _run_pooled(points, runner, workers)

    failed: dict[int, PointFailure] = {}
    results: list[Any] = [None] * len(points)
    for index, status, payload in raw:
        if status == "ok":
            results[index] = payload
        else:
            failed[index] = PointFailure(_point_key(points[index], index, key), payload)
    if failed:
        # Report in point order regardless of completion order.
        failures = [failed[index] for index in sorted(failed)]
        raise GridError(failures, completed=len(points) - len(failures), total=len(points))
    return results


def run_grid_dict(
    points: Sequence[Any],
    runner: Callable[[Any], Any],
    workers: Optional[int] = None,
    force_pool: bool = False,
) -> dict:
    """:func:`run_grid`, merged as ``{point: result}`` in point order.

    Points must be hashable and unique; the mapping's insertion order is
    the grid order, so downstream serialization (bench JSON, reports) is
    identical between serial and parallel runs.
    """
    points = list(points)
    if len(set(points)) != len(points):
        raise ValueError("grid points must be unique to key a result dict")
    results = run_grid(points, runner, workers=workers, force_pool=force_pool)
    return dict(zip(points, results))
