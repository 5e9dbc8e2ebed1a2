"""The parallel experiment-execution engine (`repro.exec`).

Locks the determinism contract of docs/performance.md: a parallel run
merges to output byte-identical to the serial path, and failures are
reported deterministically by point, loudly, without losing the other
points' work.
"""

import json
import os
import threading

import pytest

from repro.exec import GridError, default_workers, point_seed, run_grid, run_grid_dict
from repro.exec.engine import WORKERS_ENV
from repro.experiments.iperf_tls import run_iperf
from repro.faults.chaos import chaos_point


# --- pure-function runners (module level: workers pickle them by name) ---

def square(point):
    return point * point


def fail_on_odd(point):
    if point % 2:
        raise ValueError(f"boom at {point}")
    return point


def exit_on_three(point):
    if point == 3:
        os._exit(1)  # the worker process dies; no exception to report
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


def test_unpicklable_grid_fails_fast():
    points = [lambda: None, lambda: None]  # lambdas don't pickle
    with pytest.raises(GridError) as excinfo:
        run_grid(points, square, workers=2)
    assert "<pickling>" in str(excinfo.value)


# --- the determinism contract -------------------------------------------

def test_serial_and_parallel_merge_byte_identical():
    """workers=2 output is byte-for-byte the serial output, including a
    sweep whose points arm FaultPlans and run under the sanitizer."""
    seeds = [1, 2, 3]
    serial = run_grid(seeds, chaos_tls_point, workers=1)
    parallel = run_grid(seeds, chaos_tls_point, workers=2)
    as_json = lambda results: json.dumps(results, sort_keys=True, indent=1)  # noqa: E731
    assert as_json(parallel) == as_json(serial)
    # The runs did something: fault plans armed, streams verified.
    assert all(r["plan"] for r in serial)


def test_iperf_results_cross_the_pool_boundary():
    """Payloads move through the stack as memoryviews, which do not
    pickle: nothing a grid point returns may hold on to one — plain TCP
    (the sink sees Skbs around views) and kTLS alike."""
    points = [("tcp", 1), ("tls-offload", 2)]
    pooled = run_grid(points, iperf_point, workers=2)
    assert pooled == run_grid(points, iperf_point, workers=1)
    assert all(run.bytes_moved > 0 for run in pooled)


def test_workers_env_is_honored_by_default_path(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "2")
    points = list(range(6))
    assert run_grid(points, square) == [p * p for p in points]


def test_workers_env_auto(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "auto")
    assert default_workers() == (os.cpu_count() or 1)


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


def test_dead_worker_fails_loudly_instead_of_hanging():
    """A point that kills its worker process breaks the pool: the grid
    must end in a GridError naming the lost points, not wait forever."""
    raised = []

    def attempt():
        try:
            run_grid(list(range(6)), exit_on_three, workers=2)
        except GridError as err:
            raised.append(err)

    # A daemon thread, so a hang fails this test instead of the session.
    thread = threading.Thread(target=attempt, daemon=True)
    thread.start()
    thread.join(30)
    assert raised, "run_grid hung on a dead worker"
    err = raised[0]
    assert 3 in [f.key for f in err.failures]
    assert all("BrokenProcessPool" in f.worker_traceback for f in err.failures)
    assert err.completed + len(err.failures) == err.total == 6
