"""The one ambient instrumentation context.

Every observer the simulation reports into is a field of one
:class:`Instrumentation` record — the metrics registry, the profiler,
the frame-lineage recorder (:func:`repro.obs.lineage.recording`) and
the WIDS watch (:func:`repro.wids.runtime.wids_watch`) — and this
module holds the repo's only ambient hook: the installed record.
``None`` means that observer is off.  Hot-path code looks the record up
once with :func:`instruments` and guards each field::

    m = instruments().metrics
    if m is not None:
        m.incr("radio.deliveries")

:func:`installed` replaces the named fields for the duration of a block.
Contexts nest, the innermost wins field by field, and the previous
record is restored on exit even when the body raises — including the
fleet worker's SIGALRM trial timeout.  :func:`collecting` installs a
fresh registry and, optionally, a profiler::

    with collecting(profile=True) as col:
        result = spec.runner()          # any number of Simulators inside
    print(col.profiler.report())
    payload = col.snapshot()            # mergeable metrics dict

The simulation never reads anything back out of the record, so
installing an observer cannot change simulated results (the
zero-perturbation invariant pinned by the determinism golden tests).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profiler

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.lineage import FlightRecorder
    from repro.wids.runtime import WidsWatch

__all__ = ["Collection", "Instrumentation", "collecting", "installed",
           "instruments"]


@dataclass(frozen=True, slots=True)
class Instrumentation:
    """The installed observers; ``None`` means that one is off."""

    metrics: Optional[MetricsRegistry] = None
    profiler: Optional[Profiler] = None
    recorder: Optional["FlightRecorder"] = None
    wids: Optional["WidsWatch"] = None


_current = Instrumentation()


def instruments() -> Instrumentation:
    """The installed :class:`Instrumentation` record."""
    return _current


@contextmanager
def installed(**fields: Any) -> Iterator[Instrumentation]:
    """Replace the named fields of the record for the duration of the block."""
    global _current
    previous = _current
    _current = replace(previous, **fields)
    try:
        yield _current
    finally:
        _current = previous


class Collection:
    """One observability session: a registry plus an optional profiler."""

    def __init__(self, *, profile: bool = False) -> None:
        self.registry = MetricsRegistry()
        self.profiler: Optional[Profiler] = Profiler() if profile else None

    def snapshot(self) -> dict:
        """The registry's mergeable snapshot (see ``MetricsRegistry``)."""
        return self.registry.snapshot()


@contextmanager
def collecting(*, metrics: bool = True, profile: bool = False) -> Iterator[Collection]:
    """Install a fresh :class:`Collection` for the duration of the block.

    ``metrics=False`` installs no registry (instrumentation records
    nothing and ``col.registry`` stays empty) — the "off" leg of the
    zero-perturbation golden tests.
    """
    collection = Collection(profile=profile)
    with installed(metrics=collection.registry if metrics else None,
                   profiler=collection.profiler):
        yield collection
