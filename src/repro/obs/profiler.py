"""Wall-clock profiling spans with a per-category self-time breakdown.

The profiler answers "where does the *runtime* go" (as opposed to the
metrics registry's "what did the *simulation* do").  Spans are cheap
category-labelled stopwatches around the known hot paths — kernel event
dispatch, radio fan-out, RC4/FMS, the frame codec.  Each category is a
pair of :class:`~repro.obs.metrics.TimerMetric` in a
:class:`~repro.obs.metrics.MetricsRegistry`: ``<category>`` holds the
inclusive time and ``<category>.self`` the self time, which excludes
the spans nested inside it.  Self times therefore add up to the time
spent inside top-level spans, and ``breakdown()``'s shares sum to 100%.

Wall-clock readings never feed back into the simulation, so profiling
cannot perturb simulated results.  Merge and serialization are the
registry's, so fleet workers can ship per-trial breakdowns for the
parent to reduce alongside the metrics snapshots.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Tuple

from repro.obs.metrics import MetricsRegistry, TimerMetric

__all__ = ["Profiler"]

_SELF = ".self"


class Profiler:
    """Per-category wall-clock timers, inclusive and self.

    Categories are dotted names like ``kernel.radio.medium`` or
    ``crypto.rc4``.  Use :meth:`span` as a context manager around the
    timed region, or :meth:`record` with an externally measured
    duration.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        # Time spent in nested spans, one entry per open span.
        self._children_s: list[float] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, category: str) -> Iterator[None]:
        """Time a ``with`` block under ``category``."""
        self._children_s.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - t0
            self._add(category, elapsed, elapsed - self._children_s.pop())

    def record(self, category: str, seconds: float) -> None:
        """Add a measured duration with no spans nested inside it."""
        self._add(category, seconds, seconds)

    def _add(self, category: str, inclusive: float, self_s: float) -> None:
        self.registry.add_time(category, inclusive)
        self.registry.add_time(category + _SELF, self_s)
        if self._children_s:
            self._children_s[-1] += inclusive

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _timer(self, name: str) -> TimerMetric:
        timer = self.registry.get(name)
        return timer if timer is not None else TimerMetric()

    def categories(self) -> list[str]:
        return [name for name in self.registry.names()
                if not name.endswith(_SELF)]

    def count(self, category: str) -> int:
        return self._timer(category).count

    def total_s(self, category: str) -> float:
        return self._timer(category).total_s

    def self_s(self, category: str) -> float:
        return self._timer(category + _SELF).total_s

    def mean_s(self, category: str) -> float:
        return self._timer(category).mean_s

    def grand_total_s(self) -> float:
        """Time inside top-level spans: the sum of every self time."""
        return sum(self.self_s(c) for c in self.categories())

    def __len__(self) -> int:
        return len(self.categories())

    def __iter__(self) -> Iterator[Tuple[str, int, float]]:
        """(category, count, total_s) triples, largest total first."""
        for category in sorted(self.categories(),
                               key=lambda c: (-self.total_s(c), c)):
            yield category, self.count(category), self.total_s(category)

    # ------------------------------------------------------------------
    # merge / serialization
    # ------------------------------------------------------------------
    def merge(self, other: "Profiler") -> "Profiler":
        """Fold another profiler's timers in (returns self)."""
        self.registry.merge(other.registry)
        return self

    def to_dict(self) -> dict:
        return self.registry.snapshot()

    @classmethod
    def from_dict(cls, data: dict) -> "Profiler":
        prof = cls()
        prof.registry = MetricsRegistry.from_snapshot(data)
        return prof

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def breakdown(self) -> list[dict]:
        """Rows for the ``run --profile`` table, largest self time first."""
        grand = self.grand_total_s()
        rows = []
        for category in sorted(self.categories(),
                               key=lambda c: (-self.self_s(c), c)):
            count, total, self_s = (self.count(category),
                                    self.total_s(category),
                                    self.self_s(category))
            rows.append({
                "category": category,
                "calls": count,
                "total_ms": round(total * 1e3, 3),
                "self_ms": round(self_s * 1e3, 3),
                "mean_us": round(total / count * 1e6, 2) if count else 0.0,
                "share": f"{(self_s / grand * 100.0) if grand else 0.0:.1f}%",
            })
        return rows

    def report(self) -> str:
        """Aligned per-category time/count breakdown."""
        rows = self.breakdown()
        if not rows:
            return "(no spans recorded)"
        headers = ["category", "calls", "total_ms", "self_ms", "mean_us",
                   "share"]
        table = [[str(r[h]) for h in headers] for r in rows]
        widths = [max(len(h), *(len(row[i]) for row in table))
                  for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        for row in table:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)
