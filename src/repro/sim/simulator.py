"""The simulator: a clock plus an event queue.

The simulator also owns the run's random source so that every stochastic
decision (loss, reordering, workload think times) is reproducible from a
single seed, and carries the run's optional observability handle
(``sim.obs``, a :class:`repro.obs.Obs`): components reach their metrics
and tracer through the simulator they already hold.

The event queue itself is pluggable (:mod:`repro.sim.wheel`): the
default slotted timing wheel schedules in O(1) for datacenter-scale
flow counts, while ``scheduler="heap"`` selects the single binary heap
the reproduction originally shipped with.  Both fire events in exactly
the same ``(time, seq)`` order, so the choice can never change a
simulation result — only how fast it computes.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.sim.event import Event
from repro.sim.wheel import make_scheduler

_FOREVER = float("inf")


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random source.  Sub-components that
        need their own stream should call :meth:`substream`.
    scheduler:
        Event-queue backend: ``"wheel"`` (slotted timing wheel, the
        default) or ``"heap"`` (single binary heap).  ``None`` reads the
        ``REPRO_SIM_SCHEDULER`` environment knob.  Event order is
        identical either way (proven by ``tests/test_sim_wheel.py``).
    """

    def __init__(self, seed: int = 0, scheduler: Optional[str] = None):
        self.now: float = 0.0
        self.seed = seed
        self.random = random.Random(seed)
        self._queue = make_scheduler(scheduler)
        self._scheduled = 0  # events ever scheduled: the (time, seq) tiebreak
        self._events_fired = 0
        self._pending = 0  # live non-canceled count; no queue scans
        # Observability handle (repro.obs.Obs) or None = off.  Set it
        # before constructing hosts so caching components see it.
        self.obs = None

    @property
    def now_ns(self) -> int:
        """The current simulated time in integer nanoseconds."""
        return round(self.now * 1e9)

    @property
    def scheduler_name(self) -> str:
        """The active event-queue backend (``"wheel"`` or ``"heap"``)."""
        return self._queue.name

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._scheduled = order = self._scheduled + 1
        event = Event(self.now + delay, order, fn, args, self)
        self._queue.push(event)
        self._pending += 1
        return event

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        self._scheduled = order = self._scheduled + 1
        event = Event(time, order, fn, args, self)
        self._queue.push(event)
        self._pending += 1
        return event

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current time, after pending events."""
        return self.at(self.now, fn, *args)

    def substream(self, name: str) -> random.Random:
        """A named, independent random stream derived from the run seed."""
        return random.Random(f"{self.seed}:{name}")

    def _note_canceled(self) -> None:
        """A queued event was canceled (called by :meth:`Event.cancel`)."""
        self._pending -= 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False if none remain."""
        event = self._queue.pop_due(_FOREVER)
        if event is None:
            return False
        event._sim = None
        self._pending -= 1
        self.now = event.time
        self._events_fired += 1
        event.fire()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or the event
        budget ``max_events`` is exhausted.  The clock never moves
        backwards: an ``until`` already in the past fires nothing and
        leaves ``now`` alone."""
        limit = _FOREVER if until is None else until
        pop_due = self._queue.pop_due
        fired = 0
        while max_events is None or fired < max_events:
            event = pop_due(limit)
            if event is None:
                if until is not None and until > self.now:
                    self.now = until
                return
            # step(), inlined: this loop is the simulator's hot path.
            event._sim = None
            self._pending -= 1
            self.now = event.time
            self._events_fired += 1
            event.fire()
            fired += 1

    @property
    def pending(self) -> int:
        """Number of pending (non-canceled) events — a live counter, so
        observability probes stay O(1) at any flow count."""
        return self._pending

    @property
    def events_fired(self) -> int:
        return self._events_fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.9f} pending={self._pending}>"
