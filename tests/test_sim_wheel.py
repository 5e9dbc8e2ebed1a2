"""The slotted timing wheel must be observationally identical to the
binary heap: same fire order (time, then scheduling sequence), same
cancellation semantics, same clock behavior — on *any* schedule.

This is the contract that makes the scheduler a pure performance knob:
repro.sim picks the wheel by default, and no simulation result may
depend on that choice.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import SCHEDULERS, HeapScheduler, Simulator, SlottedWheel, default_scheduler
from repro.sim.wheel import SCHEDULER_ENV, make_scheduler

# One event spec: absolute time, an optional child delay (the callback
# reschedules, exercising mid-run pushes), and a pre-run cancel flag.
EVENT_SPECS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e-3, allow_nan=False, allow_infinity=False),
        st.sampled_from([None, 0.0, 1e-6, 3.7e-6, 5e-5]),
        st.booleans(),
    ),
    min_size=1,
    max_size=60,
)


def _trace(scheduler, specs, until, extra):
    """Run one randomized schedule; return every observable outcome."""
    sim = Simulator(scheduler=scheduler)
    order = []

    def fire(label, child_delay):
        order.append((sim.now, label))
        if child_delay is not None:
            sim.schedule(child_delay, fire, ("child", label), None)

    events = []
    for i, (time, child, cancel) in enumerate(specs):
        events.append((sim.at(time, fire, i, child), cancel))
    for event, cancel in events:
        if cancel:
            event.cancel()
    sim.run(until=until)
    # Second phase: scheduling after a bounded run lands at-or-before
    # the wheel's advanced cursor — the late-push path must keep order.
    for j, (delay, child, _) in enumerate(extra):
        sim.schedule(delay, fire, ("late", j), child)
    sim.run()
    assert sim.pending == 0
    return order, sim.now, sim.events_fired


@settings(max_examples=200, deadline=None)
@given(specs=EVENT_SPECS, until=st.sampled_from([None, 2e-4, 6e-4]), extra=EVENT_SPECS)
def test_wheel_fires_in_exact_heap_order(specs, until, extra):
    assert _trace("wheel", specs, until, extra) == _trace("heap", specs, until, extra)


def test_default_is_the_wheel():
    assert default_scheduler() == "wheel"
    assert Simulator().scheduler_name == "wheel"
    assert "wheel" in SCHEDULERS and "heap" in SCHEDULERS


def test_env_knob_selects_the_backend(monkeypatch):
    monkeypatch.setenv(SCHEDULER_ENV, "heap")
    assert default_scheduler() == "heap"
    assert Simulator().scheduler_name == "heap"
    # An explicit constructor argument beats the environment.
    assert Simulator(scheduler="wheel").scheduler_name == "wheel"


def test_unknown_scheduler_rejected(monkeypatch):
    with pytest.raises(ValueError):
        make_scheduler("splay-tree")
    monkeypatch.setenv(SCHEDULER_ENV, "fifo")
    with pytest.raises(ValueError):
        Simulator()


def test_testbed_config_scheduler_knob():
    from repro.harness.testbed import TestbedConfig

    cfg = TestbedConfig(scheduler="heap")
    from repro.harness.testbed import Testbed

    assert Testbed(cfg).sim.scheduler_name == "heap"


FOREVER = float("inf")


class _Tick:
    """Event stand-in: the wheel only reads .time, .seq, .canceled."""

    __slots__ = ("time", "seq", "canceled")

    def __init__(self, time, seq):
        self.time = time
        self.seq = seq
        self.canceled = False


@pytest.mark.parametrize("factory", [SlottedWheel, HeapScheduler])
def test_scheduler_primitive_interface(factory):
    q = factory()
    ticks = [_Tick(t, i) for i, t in enumerate([5e-6, 1e-6, 1e-6, 9e-6])]
    for tick in ticks:
        q.push(tick)
    assert len(q) == 4
    assert q.pop_due(0.5e-6) is None and len(q) == 4  # nothing due yet: all stay queued
    assert q.pop_due(1e-6) is ticks[1]  # earliest time, lowest seq; due *at* the limit counts
    ticks[2].canceled = True  # lazily skipped, not removed
    assert q.pop_due(6e-6) is ticks[0]
    assert q.pop_due(6e-6) is None and len(q) == 1
    assert q.pop_due(FOREVER) is ticks[3]
    assert q.pop_due(FOREVER) is None and len(q) == 0


def test_wheel_late_push_joins_active_slot():
    q = SlottedWheel()
    first = _Tick(5e-6, 1)
    q.push(first)
    assert q.pop_due(1e-6) is None  # probing the head advances the cursor to first's slot
    # A later-seq event in an already-passed slot must still sort by
    # (time, seq) against the active slot's contents.
    early = _Tick(2e-6, 2)
    q.push(early)
    assert q.pop_due(FOREVER) is early
    assert q.pop_due(FOREVER) is first
