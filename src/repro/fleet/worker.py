"""Worker-process side of the fleet engine.

A worker is a plain loop over its own pipe to the parent: receive a
trial index, run ``trial(seed_base + index)`` through :func:`attempt`,
send the outcome back, and stop on a ``None`` index.  Workers never
decide policy — assignment, watchdogs and reduction all live in the
parent (:mod:`repro.fleet.scheduler`), and the parent always knows which
index a worker holds because it sent it.

:func:`attempt` is the one place a trial runs, in a worker and in the
serial loop alike.  It returns ``("ok", (value, extra))`` or
``(kind, message)`` with ``kind`` ``"error"`` (``message`` is the
formatted traceback) or ``"timeout"``.

The trial a worker runs is always an :class:`ObservedTrial`, which
returns the ``(value, extra)`` pair an ``"ok"`` outcome carries.
``extra`` is ``None`` or a dict with optional keys ``"metrics"`` (the
trial's :class:`MetricsRegistry` snapshot when the campaign collects
metrics; the parent hands it to ``on_snapshot``) and ``"lineage"`` (a
truncated serialized flight-recorder sample when the campaign runs
with ``flight_recorder=N``).  Nothing else crosses the pipe while a
trial runs.
"""

from __future__ import annotations

import signal
import traceback
from typing import Any, Callable, Optional, Tuple

from repro.fleet.errors import FAIL_ERROR, FAIL_TIMEOUT
from repro.obs.lineage import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import installed

__all__ = ["ObservedTrial", "attempt", "worker_main"]


class ObservedTrial:
    """Picklable wrapper that runs a trial under the campaign's observers.

    Calling it returns ``(value, extra)``: the trial's own return value
    and the observers' payload for the parent (``None`` when the
    campaign observes nothing).  ``metrics=True`` installs a fresh
    per-trial :class:`~repro.obs.metrics.MetricsRegistry`, whose
    snapshot ships to the parent as ``extra["metrics"]`` (parent-side
    seed-order merge == one serial registry).  ``lineage_sample=N > 0``
    installs a :class:`~repro.obs.lineage.FlightRecorder` whose ring
    buffer keeps only the newest ``N`` lineages, so worker memory and
    the pipe payload stay bounded however much traffic the
    trial generates; raw frame bytes are clipped by
    :meth:`FlightRecorder.to_dicts`'s ``raw_limit`` on the way out.
    Both are observational only, so the trial's value is identical with
    or without the wrapper.
    """

    def __init__(self, trial: Callable[[int], Any], *, metrics: bool,
                 lineage_sample: int) -> None:
        self.trial = trial
        self.metrics = metrics
        self.lineage_sample = lineage_sample

    def __call__(self, seed: int) -> Tuple[Any, Optional[dict]]:
        fields: dict = {}
        if self.metrics:
            fields["metrics"] = MetricsRegistry()
        if self.lineage_sample > 0:
            fields["recorder"] = FlightRecorder(self.lineage_sample)
        with installed(**fields):
            value = self.trial(seed)
        extra: dict = {}
        if "metrics" in fields:
            extra["metrics"] = fields["metrics"].snapshot()
        if "recorder" in fields:
            extra["lineage"] = fields["recorder"].to_dicts()
        return value, extra or None


class _TrialTimeout(Exception):
    """Internal: raised by the SIGALRM handler when a trial overruns."""


def _on_alarm(signum: int, frame: Any) -> None:
    raise _TrialTimeout()


def run_one(trial: Callable[[int], Any], seed: int,
            timeout: Optional[float] = None) -> Any:
    """Run one trial, raising :class:`_TrialTimeout` if it overruns.

    The timeout uses ``signal.setitimer`` where available (POSIX main
    thread); elsewhere the trial runs unguarded and the parent-side
    watchdog is the only enforcement.  Pure-Python trials observe the
    alarm between bytecodes; trials hung inside C code that blocks
    signals are caught by the parent watchdog instead.
    """
    if timeout is None or not hasattr(signal, "setitimer"):
        return trial(seed)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return trial(seed)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def attempt(trial: Callable[[int], Any], seed: int,
            timeout: Optional[float]) -> Tuple[str, Any]:
    """Run one trial once: ``("ok", result)`` or ``(kind, message)``."""
    try:
        return "ok", run_one(trial, seed, timeout)
    except _TrialTimeout:
        return FAIL_TIMEOUT, f"trial exceeded its {timeout}s timeout"
    except Exception:
        # Broad on purpose: the trial is recorded as failed, with its
        # traceback, and the sweep reports it and exits non-zero.
        return FAIL_ERROR, traceback.format_exc()


def worker_main(conn: Any, trial: ObservedTrial, seed_base: int,
                timeout: Optional[float]) -> None:
    """Process entry point: run each index the parent sends until ``None``."""
    while (index := conn.recv()) is not None:
        conn.send(attempt(trial, seed_base + index, timeout))
