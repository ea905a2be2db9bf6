"""Structured event tracing.

Every layer of the simulated stack reports interesting moments
(association, deauth injection, netsed rewrite, HMAC failure, ...) to
the simulator's :class:`Trace`.  Experiments query it instead of
scraping logs, and tests assert on it instead of monkeypatching
internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

__all__ = ["Trace", "TraceRecord"]


@dataclass(frozen=True)
class TraceRecord:
    """One traced event.

    Attributes
    ----------
    time:
        Simulated time the event occurred.
    category:
        Dotted namespace such as ``"dot11.assoc"`` or ``"netsed.rewrite"``.
    source:
        Name of the emitting component (host or module name).
    detail:
        Free-form key/value payload describing the event.
    """

    time: float
    category: str
    source: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Defensive copy: the record is frozen but a dict is not, and a
        # caller mutating the dict it passed in must not rewrite
        # recorded history.
        object.__setattr__(self, "detail", dict(self.detail))

    def __str__(self) -> str:
        kv = " ".join(f"{k}={v!r}" for k, v in self.detail.items())
        return f"[{self.time:10.6f}] {self.category:<24} {self.source:<16} {kv}"


class Trace:
    """An append-only record of simulation events with query helpers."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []
        self._clock: Callable[[], float] = lambda: 0.0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the time source (normally ``lambda: sim.now``)."""
        self._clock = clock

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def emit(self, category: str, source: str, **detail: Any) -> TraceRecord:
        """Record an event."""
        rec = TraceRecord(time=self._clock(), category=category, source=source, detail=detail)
        self.records.append(rec)
        return rec

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def select(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        since: float = 0.0,
        **detail_filters: Any,
    ) -> Iterator[TraceRecord]:
        """Iterate records matching all provided filters.

        ``category`` is a prefix match; ``detail_filters`` require exact
        equality on keys of :attr:`TraceRecord.detail`.
        """
        for rec in self.records:
            if rec.time < since:
                continue
            if category is not None and not rec.category.startswith(category):
                continue
            if source is not None and rec.source != source:
                continue
            if detail_filters and any(
                rec.detail.get(k) != v for k, v in detail_filters.items()
            ):
                continue
            yield rec

    def between(self, t0: float, t1: float,
                category: Optional[str] = None, **kw: Any) -> Iterator[TraceRecord]:
        """Records with ``t0 <= time <= t1`` (plus any :meth:`select` filters)."""
        for rec in self.select(category=category, since=t0, **kw):
            if rec.time <= t1:
                yield rec

    def matching(self, prefix: str) -> Iterator[TraceRecord]:
        """Records whose category starts with ``prefix`` (e.g. ``"netsed."``)."""
        return self.select(category=prefix)

    def count(self, category: Optional[str] = None, **kw: Any) -> int:
        """Number of records matching the filters of :meth:`select`."""
        return sum(1 for _ in self.select(category=category, **kw))

    def last(self, category: Optional[str] = None, **kw: Any) -> Optional[TraceRecord]:
        """Most recent matching record, or None."""
        result = None
        for rec in self.select(category=category, **kw):
            result = rec
        return result

    def summary(self) -> dict[str, Any]:
        """Compact, serializable digest: record count, per-category counts, span."""
        by_category: dict[str, int] = {}
        for rec in self.records:
            by_category[rec.category] = by_category.get(rec.category, 0) + 1
        return {
            "n": len(self.records),
            "by_category": by_category,
            "t_first": self.records[0].time if self.records else None,
            "t_last": self.records[-1].time if self.records else None,
        }

    def dump(self, category: Optional[str] = None) -> str:
        """Human-readable transcript (used by examples and debugging)."""
        return "\n".join(str(r) for r in self.select(category=category))
