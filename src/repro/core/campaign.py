"""Multi-seed trial campaigns.

One simulated world is one sample.  Experiments that report rates or
probabilities run the same scenario under many seeds and aggregate —
this module is that loop, kept deliberately dumb so benchmark code
reads as "what was measured", not "how the loop works".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["TrialStats", "run_trials"]


@dataclass
class TrialStats:
    """Aggregate over per-trial scalar outcomes."""

    values: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / self.n if self.n else math.nan

    @property
    def stdev(self) -> float:
        if self.n < 2:
            return 0.0
        m = self.mean
        return math.sqrt(sum((v - m) ** 2 for v in self.values) / (self.n - 1))

    @property
    def rate(self) -> float:
        """For boolean outcomes (0/1): the success fraction."""
        return self.mean


def run_trials(n: int, trial: Callable[[int], float],
               *, seed_base: int = 1000) -> TrialStats:
    """Run ``trial(seed)`` for ``n`` distinct seeds and aggregate.

    Each trial builds its own simulator from its seed, so trials are
    independent and individually reproducible.  This is the plain
    serial loop, and an exception propagates.
    :func:`repro.fleet.run_campaign` runs the same sweep across
    processes (its ``.stats`` is bit-for-bit this aggregate) and
    records failures instead.
    """
    stats = TrialStats()
    for i in range(n):
        stats.add(trial(seed_base + i))
    return stats
