"""Mergeable metric types and the hierarchical registry.

Counters, gauges, timers, and histograms, addressed by dotted names
(``radio.deliveries``, ``tcp.retransmits``, ``netfilter.dnat_hits``).
These are the repo's one family of mergeable stats, and every type
obeys one ``merge()`` law: ``a.merge(b)`` folds ``b``'s observations
into ``a`` (and returns ``a``), and folding per-shard partials together
**in shard order**, over *any* ordered split of the observation stream
(empty and single-sample partials included), is indistinguishable from
a single-pass accumulation over the whole — exactly for discrete state
(counts, bins, min/max) and to float rounding for derived sums.  Two
histograms merge only when their binning is identical.  That law is
what lets :mod:`repro.fleet` ship one snapshot per trial and reduce
them in seed order into an aggregate identical to a serial run's.

This module imports only the standard library on purpose: it is pulled
in by :mod:`repro.sim.kernel` (the innermost module of the system), so
it must not depend on anything above it.

Recording is observational only — no metric ever reads the simulation
RNG or schedules an event — which is what makes the zero-perturbation
guarantee (identical simulated results with metrics on, off, or absent)
hold by construction.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Dict, Iterator, Optional, Tuple, Union

__all__ = [
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "TimerMetric",
]


class CounterMetric:
    """A monotonically adjusted integer count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def incr(self, by: int = 1) -> None:
        self.value += by

    def merge(self, other: "CounterMetric") -> "CounterMetric":
        """Fold another counter in (returns self): counts add."""
        self.value += other.value
        return self

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    @classmethod
    def from_dict(cls, data: dict) -> "CounterMetric":
        c = cls()
        c.value = int(data["value"])
        return c

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.value}>"


class GaugeMetric:
    """A last-value-wins sample with min/max/update bookkeeping.

    The merge law treats ``other`` as the *later* shard: its last value
    wins (if it observed any), exactly as if its sets had happened after
    ours — so in-order merging reproduces single-pass accumulation.
    """

    kind = "gauge"
    __slots__ = ("value", "updates", "min", "max")

    def __init__(self) -> None:
        self.value: Optional[float] = None
        self.updates = 0
        self.min = math.inf
        self.max = -math.inf

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "GaugeMetric") -> "GaugeMetric":
        """Fold a later shard's gauge in (returns self)."""
        if other.updates:
            self.value = other.value
        self.updates += other.updates
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "updates": self.updates,
            "min": self.min if self.updates else None,
            "max": self.max if self.updates else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GaugeMetric":
        g = cls()
        g.updates = int(data["updates"])
        if g.updates:
            g.value = data["value"]
            g.min = float(data["min"])
            g.max = float(data["max"])
        return g

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.value} (n={self.updates})>"


class TimerMetric:
    """Accumulated durations: count, total, min, max.

    Used both for simulated-time durations (e.g. per-connection RTT
    samples) and the wall-clock spans a
    :class:`~repro.obs.profiler.Profiler` keeps.
    """

    kind = "timer"
    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = -math.inf

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else math.nan

    def merge(self, other: "TimerMetric") -> "TimerMetric":
        """Fold another timer in (returns self): counts and totals add."""
        self.count += other.count
        self.total_s += other.total_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)
        return self

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s if self.count else None,
            "max_s": self.max_s if self.count else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimerMetric":
        t = cls()
        t.count = int(data["count"])
        if t.count:
            t.total_s = float(data["total_s"])
            t.min_s = float(data["min_s"])
            t.max_s = float(data["max_s"])
        return t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Timer n={self.count} total={self.total_s:.4g}s>"


class HistogramMetric:
    """Fixed-bin histogram over ``[lo, hi)``; out-of-range tracked apart.

    Bins are half-open and merge bin for bin; observations below ``lo``
    count as underflow and at or above ``hi`` as overflow.
    """

    kind = "histogram"
    __slots__ = ("lo", "hi", "bins", "counts", "underflow", "overflow", "_edges")

    def __init__(self, lo: float, hi: float, bins: int) -> None:
        if hi <= lo or bins < 1:
            raise ValueError("invalid histogram bounds")
        self.lo, self.hi, self.bins = lo, hi, bins
        self.counts = [0] * bins
        self.underflow = 0
        self.overflow = 0
        self._edges = [lo + (hi - lo) * i / bins for i in range(bins + 1)]

    def observe(self, x: float) -> None:
        if x < self.lo:
            self.underflow += 1
        elif x >= self.hi:
            self.overflow += 1
        else:
            idx = bisect_right(self._edges, x) - 1
            self.counts[min(idx, self.bins - 1)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow

    def merge(self, other: "HistogramMetric") -> "HistogramMetric":
        """Add another histogram's counts bin-for-bin (returns self)."""
        if (self.lo, self.hi, self.bins) != (other.lo, other.hi, other.bins):
            raise ValueError(
                f"cannot merge histograms with different binning: "
                f"({self.lo}, {self.hi}, {self.bins}) vs "
                f"({other.lo}, {other.hi}, {other.bins})")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.underflow += other.underflow
        self.overflow += other.overflow
        return self

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lo": self.lo,
            "hi": self.hi,
            "bins": self.bins,
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HistogramMetric":
        h = cls(float(data["lo"]), float(data["hi"]), int(data["bins"]))
        h.counts = [int(c) for c in data["counts"]]
        h.underflow = int(data["underflow"])
        h.overflow = int(data["overflow"])
        return h

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram [{self.lo},{self.hi}) n={self.total}>"


Metric = Union[CounterMetric, GaugeMetric, TimerMetric, HistogramMetric]

_METRIC_TYPES = {
    cls.kind: cls
    for cls in (CounterMetric, GaugeMetric, TimerMetric, HistogramMetric)
}


class MetricsRegistry:
    """Hierarchical (dotted-name) registry of mergeable metrics.

    The registry is the unit the fleet ships between processes: a
    worker snapshots its trial's registry with :meth:`snapshot`, the
    parent rebuilds each with :meth:`from_snapshot` and folds them
    together with :meth:`merge` in seed order.  To record nothing,
    install no registry (see :func:`repro.obs.runtime.installed`).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------------
    # get-or-create accessors
    # ------------------------------------------------------------------
    def _get(self, name: str, cls, *args) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(*args)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}")
        return metric

    def counter(self, name: str) -> CounterMetric:
        return self._get(name, CounterMetric)

    def gauge(self, name: str) -> GaugeMetric:
        return self._get(name, GaugeMetric)

    def timer(self, name: str) -> TimerMetric:
        return self._get(name, TimerMetric)

    def histogram(self, name: str, lo: float, hi: float, bins: int) -> HistogramMetric:
        return self._get(name, HistogramMetric, lo, hi, bins)

    # ------------------------------------------------------------------
    # recording conveniences
    # ------------------------------------------------------------------
    def incr(self, name: str, by: int = 1) -> None:
        self.counter(name).incr(by)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def add_time(self, name: str, seconds: float) -> None:
        self.timer(name).add(seconds)

    def observe(self, name: str, x: float, *, lo: float, hi: float, bins: int) -> None:
        self.histogram(name, lo, hi, bins).observe(x)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def value(self, name: str) -> int:
        """Counter value by name (0 for absent counters)."""
        metric = self._metrics.get(name)
        return metric.value if isinstance(metric, CounterMetric) else 0

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def subtree(self, prefix: str) -> Dict[str, Metric]:
        """All metrics whose dotted name starts with ``prefix``."""
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return {name: m for name, m in self._metrics.items()
                if name == prefix or name.startswith(dotted)}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Tuple[str, Metric]]:
        for name in sorted(self._metrics):
            yield name, self._metrics[name]

    # ------------------------------------------------------------------
    # merge / serialization (the fleet reduction pipeline)
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold a later shard's registry into this one (returns self)."""
        for name, metric in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                # Deep-copy via the serialized form so later merges
                # cannot reach back into the source registry.
                self._metrics[name] = type(metric).from_dict(metric.to_dict())
            elif type(mine) is not type(metric):
                raise ValueError(
                    f"cannot merge metric {name!r}: {mine.kind} vs {metric.kind}")
            else:
                mine.merge(metric)
        return self

    def snapshot(self) -> dict:
        """Plain-dict form: ``{dotted_name: metric.to_dict()}``."""
        return {name: self._metrics[name].to_dict()
                for name in sorted(self._metrics)}

    @classmethod
    def from_snapshot(cls, data: dict) -> "MetricsRegistry":
        reg = cls()
        for name, metric_data in data.items():
            kind = metric_data.get("kind")
            metric_cls = _METRIC_TYPES.get(kind)
            if metric_cls is None:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
            reg._metrics[name] = metric_cls.from_dict(metric_data)
        return reg

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> str:
        """Human-readable listing, one metric per line, sorted by name."""
        lines = []
        width = max((len(n) for n in self._metrics), default=1)
        for name, metric in self:
            if isinstance(metric, CounterMetric):
                desc = str(metric.value)
            elif isinstance(metric, GaugeMetric):
                desc = (f"{metric.value} (n={metric.updates}, "
                        f"min={metric.min:g}, max={metric.max:g})"
                        if metric.updates else "unset")
            elif isinstance(metric, TimerMetric):
                desc = (f"n={metric.count} total={metric.total_s:.6g}s "
                        f"mean={metric.mean_s:.3g}s" if metric.count
                        else "n=0")
            else:
                desc = f"n={metric.total} [{metric.lo:g},{metric.hi:g})x{metric.bins}"
            lines.append(f"{name:<{width}}  {metric.kind:<9}  {desc}")
        return "\n".join(lines)
