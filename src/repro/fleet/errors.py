"""Failure taxonomy for parallel campaigns.

A trial is a pure function of its seed, so it gets exactly one attempt.
A trial that goes wrong is classified and recorded as a
:class:`TrialFailure` in the sweep result, with the formatted traceback
when it raised; the rest of the sweep completes, and ``python -m repro
sweep`` exits 1.  Only misuse of the engine itself (bad arguments,
unpicklable trial under ``spawn``) and a raising ``on_snapshot``
listener raise.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

__all__ = ["FleetError", "TrialFailure",
           "FAIL_CRASH", "FAIL_ERROR", "FAIL_TIMEOUT"]

#: The trial callable raised an exception.
FAIL_ERROR = "error"
#: The trial exceeded its per-trial timeout (worker alarm or parent watchdog).
FAIL_TIMEOUT = "timeout"
#: The worker process died mid-trial (segfault, os._exit, OOM kill, ...).
FAIL_CRASH = "crash"


class FleetError(Exception):
    """Base class for campaign-engine errors."""


@dataclass(frozen=True)
class TrialFailure:
    """One trial that failed.

    Attributes
    ----------
    seed:
        The trial's seed (``seed_base + index``).
    index:
        The trial's position in the sweep, ``0 <= index < n``.
    kind:
        One of :data:`FAIL_ERROR`, :data:`FAIL_TIMEOUT`, :data:`FAIL_CRASH`.
    message:
        The formatted traceback for :data:`FAIL_ERROR`; otherwise what
        ended the trial (the timeout, or the dead worker's exit code).
    """

    seed: int
    index: int
    kind: str
    message: str

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)
