"""Unit tests for the discrete-event simulation core.

Every test runs on the simulator's slotted timing wheel and again on the
binary-heap reference queue from ``test_sim_wheel``: the wheel must
never change observable behavior.
"""

import pytest

from repro.sim import Simulator, SlottedWheel
from test_sim_wheel import HeapScheduler


@pytest.fixture(params=[SlottedWheel, HeapScheduler], ids=["wheel", "heap"])
def make_sim(request):
    def _make(seed=0):
        sim = Simulator(seed=seed)
        sim._queue = request.param()
        return sim

    return _make


def test_events_fire_in_time_order(make_sim):
    sim = make_sim()
    order = []
    sim.schedule(2.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(3.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_scheduling_order(make_sim):
    sim = make_sim()
    order = []
    for name in "abcde":
        sim.schedule(1.0, order.append, name)
    sim.run()
    assert order == list("abcde")


def test_cancel_prevents_firing(make_sim):
    sim = make_sim()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.schedule(0.5, event.cancel)
    sim.run()
    assert fired == []


def test_run_until_stops_clock_at_bound(make_sim):
    sim = make_sim()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == []
    assert sim.now == 2.0
    sim.run()
    assert fired == ["late"]


def test_run_until_in_the_past_never_rewinds_the_clock(make_sim):
    sim = make_sim()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    sim.run(until=1.0)  # a later event is pending: must not pull now back to 1.0
    assert sim.now == 2.0 and fired == []
    sim.run()
    sim.run(until=1.0)  # and with the queue drained
    assert sim.now == 5.0 and fired == ["late"]


def test_run_until_advances_clock_even_with_empty_queue(make_sim):
    sim = make_sim()
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_call_soon_runs_after_pending_same_time_events(make_sim):
    sim = make_sim()
    order = []
    sim.schedule(0.0, order.append, "first")
    sim.call_soon(order.append, "second")
    sim.run()
    assert order == ["first", "second"]


def test_cannot_schedule_in_the_past(make_sim):
    sim = make_sim()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(0.5, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_nested_scheduling_from_callbacks(make_sim):
    sim = make_sim()
    seen = []

    def hop(n):
        seen.append((sim.now, n))
        if n < 3:
            sim.schedule(1.0, hop, n + 1)

    sim.schedule(0.0, hop, 0)
    sim.run()
    assert seen == [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 3)]


def test_substreams_are_deterministic_and_independent():
    a1 = Simulator(seed=7).substream("loss")
    a2 = Simulator(seed=7).substream("loss")
    b = Simulator(seed=7).substream("reorder")
    seq1 = [a1.random() for _ in range(5)]
    seq2 = [a2.random() for _ in range(5)]
    seq3 = [b.random() for _ in range(5)]
    assert seq1 == seq2
    assert seq1 != seq3


def test_max_events_budget(make_sim):
    sim = make_sim()
    count = []
    for _ in range(10):
        sim.schedule(1.0, count.append, 1)
    sim.run(max_events=4)
    assert len(count) == 4


def test_pending_is_a_live_counter(make_sim):
    sim = make_sim()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert sim.pending == 5
    events[2].cancel()
    events[2].cancel()  # idempotent: must not double-decrement
    assert sim.pending == 4
    sim.run(until=1.5)
    assert sim.pending == 3
    sim.run()
    assert sim.pending == 0
