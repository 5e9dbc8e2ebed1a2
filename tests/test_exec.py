"""The parallel experiment-execution engine (`repro.exec`).

Locks the determinism contract of docs/performance.md: a parallel run
merges to output byte-identical to the serial path, and failures are
reported deterministically by point, loudly, without losing the other
points' work.
"""

import json
import os

import pytest

from repro.exec import (
    GridError,
    auto_chunksize,
    default_workers,
    min_parallel_points,
    point_seed,
    run_grid,
    run_grid_dict,
)
from repro.exec import engine
from repro.exec.engine import DEFAULT_MIN_PARALLEL_POINTS, MIN_POINTS_ENV, WORKERS_ENV
from repro.experiments.iperf_tls import run_iperf
from repro.faults.chaos import chaos_point


# --- pure-function runners (module level: workers pickle them by name) ---

def square(point):
    return point * point


def fail_on_odd(point):
    if point % 2:
        raise ValueError(f"boom at {point}")
    return point


def chaos_tls_point(seed):
    # Armed FaultPlan + runtime sanitizer, derived from the seed alone
    # (the fig-sweep/chaos shape: a whole simulation per grid point).
    return chaos_point(workload="tls", seed=seed, duration=3e-3)


def iperf_point(point):
    mode, seed = point
    return run_iperf(mode, "rx", streams=2, loss=0.01, warmup=2e-3, measure=2e-3, seed=seed)


# --- engine unit behavior ------------------------------------------------

def test_results_are_point_ordered():
    points = list(range(10))
    assert run_grid(points, square, workers=1) == [p * p for p in points]
    assert run_grid(points, square, workers=3) == [p * p for p in points]


def test_run_grid_dict_keys_by_point():
    grid = run_grid_dict([3, 1, 2], square, workers=2)
    assert grid == {3: 9, 1: 1, 2: 4}


def test_run_grid_dict_rejects_duplicate_points():
    with pytest.raises(ValueError, match="unique"):
        run_grid_dict([1, 1], square, workers=1)


def test_default_workers_env(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert default_workers() == 1
    monkeypatch.setenv(WORKERS_ENV, "4")
    assert default_workers() == 4
    monkeypatch.setenv(WORKERS_ENV, "0")
    with pytest.raises(ValueError):
        default_workers()
    monkeypatch.setenv(WORKERS_ENV, "many")
    with pytest.raises(ValueError):
        default_workers()


def test_point_seed_is_stable_and_distinct():
    a = point_seed(1, ("tls", 0.03))
    assert a == point_seed(1, ("tls", 0.03))  # pure function of inputs
    assert a != point_seed(2, ("tls", 0.03))  # base seed matters
    assert a != point_seed(1, ("tls", 0.05))  # point key matters


def test_unpicklable_grid_fails_fast(monkeypatch):
    monkeypatch.setenv(MIN_POINTS_ENV, "0")  # force the pool for a tiny grid
    points = [lambda: None, lambda: None]  # lambdas don't pickle
    with pytest.raises(GridError) as excinfo:
        run_grid(points, square, workers=2, force_pool=True)
    assert "<pickling>" in str(excinfo.value)


# --- the cheap-grid serial bypass ---------------------------------------

def test_min_parallel_points_env(monkeypatch):
    monkeypatch.delenv(MIN_POINTS_ENV, raising=False)
    assert min_parallel_points() == DEFAULT_MIN_PARALLEL_POINTS
    monkeypatch.setenv(MIN_POINTS_ENV, "8")
    assert min_parallel_points() == 8
    monkeypatch.setenv(MIN_POINTS_ENV, "-1")
    with pytest.raises(ValueError):
        min_parallel_points()
    monkeypatch.setenv(MIN_POINTS_ENV, "lots")
    with pytest.raises(ValueError):
        min_parallel_points()


def test_small_grid_bypasses_pool(monkeypatch, caplog):
    """A grid below the floor runs serially even with workers > 1: an
    unpicklable runner — which the pool cannot ship — still succeeds."""
    monkeypatch.delenv(MIN_POINTS_ENV, raising=False)
    runner = lambda p: p * p  # noqa: E731 - deliberately unpicklable
    with caplog.at_level("INFO", logger="repro.exec.engine"):
        assert run_grid([2, 3], runner, workers=4) == [4, 9]
    assert any("running serially" in rec.message for rec in caplog.records)


def test_bypass_disabled_honors_workers(monkeypatch):
    monkeypatch.setenv(MIN_POINTS_ENV, "0")
    assert run_grid([2, 3], square, workers=2) == [4, 9]


# --- the determinism contract -------------------------------------------

def test_serial_and_parallel_merge_byte_identical(monkeypatch):
    """workers=2 output is byte-for-byte the serial output, including a
    sweep whose points arm FaultPlans and run under the sanitizer."""
    monkeypatch.setenv(MIN_POINTS_ENV, "0")  # really exercise the pool
    seeds = [1, 2, 3]
    serial = run_grid(seeds, chaos_tls_point, workers=1)
    parallel = run_grid(seeds, chaos_tls_point, workers=2, force_pool=True)
    as_json = lambda results: json.dumps(results, sort_keys=True, indent=1)  # noqa: E731
    assert as_json(parallel) == as_json(serial)
    # The runs did something: fault plans armed, streams verified.
    assert all(r["plan"] for r in serial)


def test_iperf_results_cross_the_pool_boundary():
    """Payloads move through the stack as memoryviews, which do not
    pickle: nothing a grid point returns may hold on to one — plain TCP
    (the sink sees Skbs around views) and kTLS alike."""
    points = [("tcp", 1), ("tls-offload", 2)]
    pooled = run_grid(points, iperf_point, workers=2, force_pool=True)
    assert pooled == run_grid(points, iperf_point, workers=1)
    assert all(run.bytes_moved > 0 for run in pooled)


def test_workers_env_is_honored_by_default_path(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "2")
    points = list(range(6))
    assert run_grid(points, square) == [p * p for p in points]


def test_workers_env_auto(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "auto")
    assert default_workers() == (os.cpu_count() or 1)


# --- the persistent pool --------------------------------------------------

def test_pool_persists_across_consecutive_grids(monkeypatch):
    """Two back-to-back parallel grids reuse one pool, and the merged
    output is byte-identical to a fresh-pool run and to serial."""
    monkeypatch.setenv(MIN_POINTS_ENV, "0")
    engine.shutdown_pool()
    first = run_grid(list(range(8)), square, workers=2, force_pool=True)
    pool_after_first = engine._pool
    assert pool_after_first is not None
    second = run_grid(list(range(8, 16)), square, workers=2, force_pool=True)
    assert engine._pool is pool_after_first  # reused, not re-forked
    engine.shutdown_pool()  # force a fresh pool for the control run
    fresh = run_grid(list(range(8, 16)), square, workers=2, force_pool=True)
    serial = run_grid(list(range(8, 16)), square, workers=1)
    assert first == [p * p for p in range(8)]
    assert second == fresh == serial


def test_pool_reuse_with_armed_fault_plan(monkeypatch):
    """Worker reuse across grids whose points arm FaultPlans: the second
    grid on the warm pool matches fresh-pool and serial byte-for-byte."""
    monkeypatch.setenv(MIN_POINTS_ENV, "0")
    engine.shutdown_pool()
    run_grid([11, 12], chaos_tls_point, workers=2, force_pool=True)  # warm the pool
    warm = run_grid([13, 14], chaos_tls_point, workers=2, force_pool=True)
    engine.shutdown_pool()
    fresh = run_grid([13, 14], chaos_tls_point, workers=2, force_pool=True)
    serial = run_grid([13, 14], chaos_tls_point, workers=1)
    as_json = lambda results: json.dumps(results, sort_keys=True, indent=1)  # noqa: E731
    assert as_json(warm) == as_json(fresh) == as_json(serial)
    assert all(r["plan"] for r in serial)


def test_pool_rebuilt_on_worker_count_change(monkeypatch):
    monkeypatch.setenv(MIN_POINTS_ENV, "0")
    engine.shutdown_pool()
    run_grid([1, 2, 3], square, workers=2, force_pool=True)
    two_worker_pool = engine._pool
    run_grid([1, 2, 3], square, workers=3, force_pool=True)
    assert engine._pool is not two_worker_pool
    assert engine._pool_workers == 3
    engine.shutdown_pool()


def test_shutdown_pool_is_idempotent():
    engine.shutdown_pool()
    engine.shutdown_pool()
    assert engine._pool is None


def test_auto_chunksize():
    assert auto_chunksize(3, 2) == 1  # small grids: pure work stealing
    assert auto_chunksize(80, 2) == 10  # ~4 chunks per worker
    assert auto_chunksize(1000, 4) == 62
    assert auto_chunksize(0, 8) == 1  # never zero (imap requires >= 1)


# --- failure semantics ---------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_worker_crash_fails_loudly_with_point_id(workers):
    points = [0, 1, 2, 3, 4]
    with pytest.raises(GridError) as excinfo:
        run_grid(points, fail_on_odd, workers=workers)
    err = excinfo.value
    # Every failing point is named, in point order, traceback attached.
    assert [f.key for f in err.failures] == [1, 3]
    assert all("boom at" in f.worker_traceback for f in err.failures)
    assert "1" in str(err) and "3" in str(err)
    # The healthy points completed; their results are not lost.
    assert err.completed == 3
    assert err.total == 5


def test_custom_point_keys_in_errors():
    points = [0, 1]
    with pytest.raises(GridError) as excinfo:
        run_grid(points, fail_on_odd, workers=1, key=lambda p: f"loss={p}%")
    assert excinfo.value.failures[0].key == "loss=1%"
