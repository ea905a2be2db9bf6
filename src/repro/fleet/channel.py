"""The worker→parent snapshot channel: live telemetry out of running trials.

The fleet's base contract ships one result per trial *after* it
finishes.  Long-running campaign trials (``repro.telemetry``'s
open-loop shards) additionally want to stream interim observations —
cumulative :class:`~repro.obs.metrics.MetricsRegistry` snapshots —
while the trial is still running, so the parent can export a live
merged view.

The channel is the ``publish`` field of the one ambient
:func:`repro.obs.runtime.instruments` record: the scheduler installs a
publisher around each trial (a direct callback in serial mode, a
result-queue writer inside worker processes) and the trial calls
:func:`fleet_publish` whenever it has something to say.  With no
publisher installed the call is a no-op costing one global read
— so a trial that publishes runs bit-identically under ``run_campaign``
with or without ``on_snapshot``, and under a bare direct call.

Publishing is strictly observational: payloads flow worker→parent only,
nothing ever comes back, so the simulation cannot be perturbed by
whether anyone is listening (the exporter-on/off determinism golden in
``tests/telemetry/`` pins this).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs.runtime import installed, instruments

__all__ = ["fleet_publish", "publishing"]


@contextmanager
def publishing(publish: Callable[[dict], None]) -> Iterator[None]:
    """Install ``publish`` as the ambient snapshot publisher for the block.

    It is the ``publish`` field of :func:`repro.obs.runtime.installed`:
    contexts nest (innermost wins) and restore on exit even when the
    body raises — including the worker's SIGALRM trial timeout.
    """
    with installed(publish=publish):
        yield


def fleet_publish(payload: dict) -> None:
    """Ship ``payload`` to the campaign parent, if anyone is listening.

    ``payload`` must be picklable (it may cross a process boundary) and
    should be small and cumulative — the parent keeps only the latest
    payload per trial, so a lost or coalesced snapshot never loses
    information, merely staleness.
    """
    publish = instruments().publish
    if publish is not None:
        publish(payload)
