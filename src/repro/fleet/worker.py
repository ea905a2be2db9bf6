"""Worker-process side of the fleet engine.

A worker is a plain loop: pull a trial index off the task queue, run
``trial(seed_base + index)`` under an optional SIGALRM-based per-trial
timeout, and push the outcome to the result queue.  Workers never decide
policy — retries, watchdogs, and reduction all live in the parent
(:mod:`repro.fleet.scheduler`) so that a worker can be killed and
respawned at any moment without losing campaign state.

Wire protocol (all messages are 5-tuples on the result queue)::

    ("start", worker_id, index, None, None)        # about to run index
    ("ok",    worker_id, index, value, extra)      # extra: dict | None
    ("fail",  worker_id, index, kind, message)     # kind: "error" | "timeout"
    ("bye",   worker_id, None,  None, None)        # clean shutdown

The trial a worker runs is always an :class:`ObservedTrial`, which
returns the ``(value, extra)`` pair an ``"ok"`` message carries.
``extra`` is ``None`` or a dict with optional keys ``"metrics"`` (the
trial's :class:`MetricsRegistry` snapshot when the campaign collects
metrics; the parent hands it to ``on_snapshot``) and ``"lineage"`` (a
truncated serialized flight-recorder sample when the campaign runs
with ``flight_recorder=N``).  Nothing else crosses the queue while a
trial runs.

``"start"`` always precedes the matching ``"ok"``/``"fail"`` and the
queue preserves per-worker ordering, so the parent always knows which
index a dead or hung worker was holding.
"""

from __future__ import annotations

import signal
from typing import Any, Callable, Optional, Tuple

from repro.fleet.errors import FAIL_ERROR, FAIL_TIMEOUT
from repro.obs.lineage import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import installed

__all__ = ["ObservedTrial", "run_one", "worker_main"]


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
    the result-queue payload stay bounded however much traffic the
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


def worker_main(worker_id: int, trial: ObservedTrial, seed_base: int,
                timeout: Optional[float], task_queue: Any,
                result_queue: Any) -> None:
    """Process entry point: drain the task queue until a ``None`` sentinel."""
    while True:
        index = task_queue.get()
        if index is None:
            result_queue.put(("bye", worker_id, None, None, None))
            return
        result_queue.put(("start", worker_id, index, None, None))
        try:
            value, extra = run_one(trial, seed_base + index, timeout)
        except _TrialTimeout:
            result_queue.put(("fail", worker_id, index, FAIL_TIMEOUT,
                              f"trial exceeded its {timeout}s timeout"))
            continue
        except Exception as exc:
            # Broad on purpose: contains any crash in a user's trial.
            result_queue.put(("fail", worker_id, index, FAIL_ERROR,
                              f"{type(exc).__name__}: {exc}"))
            continue
        result_queue.put(("ok", worker_id, index, value, extra))
