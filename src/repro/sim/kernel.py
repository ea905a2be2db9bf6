"""Deterministic discrete-event simulation kernel.

The kernel is intentionally small: a priority queue of
``(time, sequence, event)`` tuples.  Ties in time are broken by
insertion order, which makes runs bit-for-bit reproducible across
platforms — a property every experiment in this reproduction relies on.
The sequence number is unique, so the heap's tuple compare never
reaches the :class:`Event` and stays in C.

Design notes (following the HPC guides' "make it work, make it right,
measure before optimizing"):

* ``heapq`` over a list of tuples is the fastest pure-Python priority
  queue for this workload; profiling showed event dispatch is dominated
  by callback bodies, not queue management, so no further optimization
  is warranted.
* Cancellation is lazy: a cancelled event stays in the heap with its
  ``cancelled`` flag set and is skipped at pop time.  This avoids the
  O(n) cost of removal and keeps the hot loop branch-predictable.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.obs.runtime import instruments
from repro.sim.errors import SimulationError
from repro.sim.rng import SimRandom
from repro.sim.trace import Trace

__all__ = ["Event", "ScheduleError", "Simulator"]


def _dispatch_category(fn: Callable[..., Any]) -> str:
    """Profiling category for an event callback: ``kernel.<module>``.

    Grouping by the callback's defining module gives the per-subsystem
    dispatch breakdown (``kernel.radio.medium``, ``kernel.netstack.tcp``,
    ...) without requiring events to carry labels.
    """
    fn = getattr(fn, "__func__", fn)  # unwrap bound methods
    module = getattr(fn, "__module__", None) or "unknown"
    if module.startswith("repro."):
        module = module[len("repro."):]
    return "kernel." + module


class ScheduleError(SimulationError):
    """An event was scheduled in the past or on a finished simulator."""


class Event:
    """A single scheduled callback.

    The queue orders events by ``(time, seq)`` so that two events at the
    same simulated time fire in the order they were scheduled.
    """

    __slots__ = ("time", "seq", "fn", "args", "kwargs", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False

    def cancel(self) -> None:
        """Mark this event so the kernel skips it when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} seq={self.seq} {name}{state}>"


class Simulator:
    """Single-threaded deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random stream.  Every stochastic
        component derives its own substream from this seed via
        :meth:`SimRandom.substream`, so adding a new random consumer
        does not perturb existing ones.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> hits = []
    >>> _ = sim.schedule(1.0, hits.append, "a")
    >>> _ = sim.schedule(0.5, hits.append, "b")
    >>> sim.run()
    >>> hits
    ['b', 'a']
    >>> sim.now
    1.0
    """

    def __init__(self, seed: int = 0) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._events_dispatched = 0
        self.rng = SimRandom(seed)
        self.trace = Trace()
        self.trace.bind_clock(lambda: self._now)
        rec = instruments().recorder
        if rec is not None:
            # Write-only registration: the flight recorder never feeds
            # anything back into the simulation (zero perturbation); it
            # just lets the trace CLI correlate lineage hops with the
            # simulator's own event trace.
            rec.attach_sim_trace(self.trace)

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_dispatched(self) -> int:
        """Number of events executed so far (diagnostics / loop guards)."""
        return self._events_dispatched

    @property
    def pending(self) -> int:
        """Number of events still in the queue (including cancelled)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``fn(*args, **kwargs)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, whose :meth:`Event.cancel` method can
        be used to revoke it (lazy cancellation).
        """
        if delay < 0:
            raise ScheduleError(f"cannot schedule {delay!r}s in the past")
        return self.schedule_at(self._now + delay, fn, *args, **kwargs)

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``fn`` at absolute simulated time ``when``."""
        if when < self._now:
            raise ScheduleError(
                f"cannot schedule at t={when!r}, current time is t={self._now!r}"
            )
        ev = Event(when, self._seq, fn, args, kwargs)
        heapq.heappush(self._queue, (when, self._seq, ev))
        self._seq += 1
        return ev

    def call_soon(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``fn`` at the current time (after already-queued events)."""
        return self.schedule(0.0, fn, *args, **kwargs)

    def every(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        until: Optional[float] = None,
    ) -> Callable[[], None]:
        """Run ``fn`` every ``interval`` seconds, starting one interval from now.

        ``until`` is an inclusive bound: a firing lands at ``until`` if the
        cadence hits it exactly, and no event is ever armed past it (so a
        bounded recurrence never drags the clock beyond its bound).
        Returns a zero-argument callable that stops the recurrence,
        cancelling the already-armed next firing.
        """
        if interval <= 0:
            raise ScheduleError("interval must be positive")
        stopped = False
        pending: list[Event] = []

        def fire() -> None:
            if stopped:
                return
            if until is not None and self._now > until:
                return
            fn(*args)
            arm()

        def arm() -> None:
            if stopped:
                return
            if until is not None and self._now >= until:
                return
            if until is not None and self._now + interval > until:
                return  # next firing would land past the bound: don't arm it
            pending.clear()
            pending.append(self.schedule(interval, fire))

        def stop() -> None:
            nonlocal stopped
            stopped = True
            for ev in pending:
                ev.cancel()

        arm()
        return stop

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next non-cancelled event.  Returns False if none left."""
        while self._queue:
            ev = heapq.heappop(self._queue)[2]
            if ev.cancelled:
                continue
            if ev.time < self._now:  # pragma: no cover - defensive
                raise SimulationError("event queue corrupted: time went backwards")
            self._now = ev.time
            self._events_dispatched += 1
            prof = instruments().profiler
            if prof is None:
                ev.fn(*ev.args, **ev.kwargs)
            else:
                with prof.span(_dispatch_category(ev.fn)):
                    ev.fn(*ev.args, **ev.kwargs)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        ``until`` is inclusive: events scheduled exactly at ``until`` run,
        and the clock is advanced to ``until`` even if the queue drains
        earlier, so back-to-back ``run(until=...)`` calls compose.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        dispatched = 0
        try:
            while self._queue:
                nxt = self._queue[0][2]
                if nxt.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and nxt.time > until:
                    break
                if max_events is not None and dispatched >= max_events:
                    return
                self.step()
                dispatched += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` simulated seconds from the current time."""
        self.run(until=self._now + duration)
