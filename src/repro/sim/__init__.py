"""Discrete-event simulation core.

Everything in the reproduction runs on top of a single-threaded,
deterministic event loop.  Time is a float in **seconds** of simulated
time; results are computed from simulated time, never wall-clock.
"""

from repro.sim.event import Event
from repro.sim.simulator import Simulator
from repro.sim.wheel import SlottedWheel

__all__ = ["Event", "Simulator", "SlottedWheel"]
