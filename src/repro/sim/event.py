"""Scheduled events.

An :class:`Event` is a callback scheduled at an absolute simulated time.
Events are ordered by ``(time, seq)`` so that two events scheduled for
the same instant fire in scheduling order, which keeps runs
deterministic.
"""

from __future__ import annotations

import functools
from typing import Any, Callable


@functools.total_ordering
class Event:
    """A single scheduled callback.

    Use :meth:`Simulator.schedule` or :meth:`Simulator.at` to create
    events; do not instantiate directly.
    """

    __slots__ = ("time", "seq", "fn", "args", "canceled", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple, sim):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.canceled = False
        # Back-reference to the owning Simulator while queued (cleared
        # when the event is popped) so cancel() can keep the live
        # pending-event counter exact without a scan.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.canceled:
            return
        self.canceled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._note_canceled()

    def fire(self) -> None:
        if not self.canceled:
            self.fn(*self.args)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (self.time, self.seq) == (other.time, other.seq)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "canceled" if self.canceled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.9f} seq={self.seq} {name} {state}>"
