"""Discrete-event simulation kernel.

Everything in :mod:`repro` runs on top of a single-threaded, deterministic
discrete-event :class:`~repro.sim.kernel.Simulator`.  Determinism is a hard
requirement: every experiment in the paper reproduction must be exactly
repeatable from a seed, so all randomness flows through
:class:`~repro.sim.rng.SimRandom` and event ordering is total (time, then
insertion sequence).
"""

from repro.sim.kernel import Event, ScheduleError, Simulator
from repro.sim.rng import SimRandom
from repro.sim.trace import Trace, TraceRecord

__all__ = [
    "Event",
    "ScheduleError",
    "SimRandom",
    "Simulator",
    "Trace",
    "TraceRecord",
]
