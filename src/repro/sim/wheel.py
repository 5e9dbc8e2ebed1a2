"""Event-queue backends: a slotted timing wheel and the heapq reference.

Both schedulers expose the same three operations (``push``,
``pop_due``, ``len``) and both fire events in exactly global ``(time,
seq)`` order — the heap by construction, the wheel by a quantization
argument spelled out below.  The wheel is the default because a single
binary heap over hundreds of thousands of timers spends its time in
``log n`` comparisons; the wheel replaces that with an O(1) bucket
append on schedule and a heap over the handful of events that share one
time slot on expiry.  ``repro.sim.Simulator`` selects the backend from
its ``scheduler=`` argument or the ``REPRO_SIM_SCHEDULER`` environment
knob, and ``tests/test_sim_wheel.py`` holds a hypothesis property test
that the two backends produce byte-identical firing orders on
randomized schedules (same times, same tiebreak, same cancellation
semantics).

Why the wheel preserves exact order
-----------------------------------
Entries are ``(time, seq, event)`` tuples.  A slot index is
``int(time / resolution)``; integer division is monotone in ``time``,
so slot order respects time order, and two events in *different* slots
can never need the seq tiebreak.  Within the active slot, entries live
in a heap, so ties resolve by ``seq`` exactly as the global heap would.
The only subtlety is late scheduling: the simulator forbids scheduling
in the past, so a new event's slot index is always >= the slot of the
event that is firing — it either joins the active slot's heap (where
the heap restores order) or lands in a strictly later slot.  When
``pop_due`` has advanced the cursor past empty slots (``run(until=...)``
probing the head), events scheduled for an index at or before the
cursor also join the active heap, which keeps them ordered relative to
whatever the cursor already covers.
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from typing import Optional

from repro.sim.event import Event

#: Environment knob: default backend for every Simulator in the process.
SCHEDULER_ENV = "REPRO_SIM_SCHEDULER"

#: Registered backend names (values of ``scheduler=`` / the env knob).
SCHEDULERS = ("wheel", "heap")

#: One wheel slot covers this many simulated seconds.  Packet service
#: times at 100 Gbps sit around 1e-7 s, so 1 µs slots put back-to-back
#: wire events in the same slot (one tiny heap) while keeping distinct
#: timer horizons (RTOs at 1e-3, probation at 5e-3) in distinct slots.
DEFAULT_RESOLUTION = 1e-6


def default_scheduler() -> str:
    """Backend name from ``REPRO_SIM_SCHEDULER``; the wheel when unset."""
    raw = os.environ.get(SCHEDULER_ENV, "").strip().lower()
    if not raw:
        return "wheel"
    if raw not in SCHEDULERS:
        raise ValueError(f"{SCHEDULER_ENV} must be one of {SCHEDULERS}, got {raw!r}")
    return raw


class HeapScheduler:
    """The reference backend: one binary heap over every pending event.

    Entries are ``(time, seq, event)`` tuples so ordering runs on
    C-level tuple comparison; ``seq`` is unique, so the event itself is
    never compared.
    """

    name = "heap"

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list = []

    def push(self, event: Event) -> None:
        heappush(self._heap, (event.time, event.seq, event))

    def pop_due(self, limit: float) -> Optional[Event]:
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


class SlottedWheel:
    """Slotted-timer calendar: O(1) schedule, per-slot heaps on expiry.

    Two levels, both sparse: future events append (unsorted, O(1)) to a
    per-slot bucket list in a dict keyed by slot index, and a small
    integer heap orders the *occupied* slot indices.  The active slot's
    entries are heapified once when the cursor reaches it; pops then
    come off that little heap.  No slot array is preallocated and no
    horizon limits how far ahead an event may land, so the structure is
    effectively a hierarchical timing wheel whose upper level is the
    index heap.
    """

    name = "wheel"

    __slots__ = ("_resolution", "_cursor", "_current", "_slots", "_slot_heap", "_size")

    def __init__(self, resolution: float = DEFAULT_RESOLUTION) -> None:
        if resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution!r}")
        self._resolution = resolution
        self._cursor = 0  # highest slot index the active heap covers
        self._current: list = []  # heap of (time, seq, event) at <= cursor
        self._slots: dict = {}  # index -> unsorted [(time, seq, event)]
        self._slot_heap: list = []  # occupied future slot indices (heap)
        self._size = 0

    def push(self, event: Event) -> None:
        index = int(event.time / self._resolution)
        self._size += 1
        if index <= self._cursor:
            # Joins the active slot: the heap restores (time, seq) order
            # relative to everything the cursor already covers.
            heappush(self._current, (event.time, event.seq, event))
            return
        slot = self._slots.get(index)
        if slot is None:
            self._slots[index] = [(event.time, event.seq, event)]
            heappush(self._slot_heap, index)
        else:
            slot.append((event.time, event.seq, event))

    def _advance(self) -> bool:
        """Load the next occupied slot into the active heap."""
        if not self._slot_heap:
            return False
        index = heappop(self._slot_heap)
        entries = self._slots.pop(index)
        heapify(entries)
        self._current = entries
        self._cursor = index
        return True

    def pop_due(self, limit: float) -> Optional[Event]:
        """Remove and return the next non-canceled event if it is due at
        or before ``limit``; None (and it stays queued) otherwise."""
        while True:
            current = self._current
            while current:
                time, _seq, event = current[0]
                if time > limit and not event.canceled:
                    return None
                heappop(current)
                self._size -= 1
                if not event.canceled:
                    return event
            if not self._advance():
                return None

    def __len__(self) -> int:
        return self._size


def make_scheduler(name: Optional[str] = None):
    """Instantiate a backend by name (None = env default)."""
    if name is None:
        name = default_scheduler()
    if name == "wheel":
        return SlottedWheel()
    if name == "heap":
        return HeapScheduler()
    raise ValueError(f"unknown scheduler {name!r} (expected one of {SCHEDULERS})")
