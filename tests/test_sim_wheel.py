"""The slotted timing wheel must be observationally identical to a
single binary heap: same fire order (time, then scheduling sequence),
same cancellation semantics, same clock behavior — on *any* schedule.

:class:`HeapScheduler` below is that reference: one heap over every
pending event, in ``(time, seq)`` order by construction.  It lives
here, not in ``repro.sim``, because its only job is to be the oracle.
"""

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Simulator, SlottedWheel


class HeapScheduler:
    """The reference backend: one binary heap over every pending event.

    Entries are ``(time, seq, event)`` tuples so ordering runs on
    C-level tuple comparison; ``seq`` is unique, so the event itself is
    never compared.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list = []

    def push(self, event) -> None:
        heappush(self._heap, (event.time, event.seq, event))

    def pop_due(self, limit: float):
        """Remove and return the next non-canceled event if it is due at
        or before ``limit``; None (and it stays queued) otherwise.
        Canceled heads are dropped on the way (they are dead weight)."""
        heap = self._heap
        while heap:
            time, _seq, event = heap[0]
            if time > limit and not event.canceled:
                return None
            heappop(heap)
            if not event.canceled:
                return event
        return None

    def __len__(self) -> int:
        return len(self._heap)


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


def _trace(queue, specs, until, extra):
    """Run one randomized schedule on ``queue``; return every observable outcome."""
    sim = Simulator()
    sim._queue = queue
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
    assert _trace(SlottedWheel(), specs, until, extra) == _trace(HeapScheduler(), specs, until, extra)


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
