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

    def merge(self, other: "TrialStats") -> "TrialStats":
        """Append another aggregate's samples to this one (returns self).

        Merging shard aggregates in seed order reproduces the serial
        ``values`` list exactly, which is what lets
        :mod:`repro.fleet` promise bit-for-bit parallel == serial.
        """
        self.values.extend(other.values)
        return self

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

    def ci95_halfwidth(self) -> float:
        """Normal-approximation 95% half-width on the mean."""
        if self.n < 2:
            return math.nan
        return 1.96 * self.stdev / math.sqrt(self.n)

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.ci95_halfwidth():.2g} (n={self.n})"


def run_trials(n: int, trial: Callable[[int], float],
               *, seed_base: int = 1000, workers: int = 1) -> TrialStats:
    """Run ``trial(seed)`` for ``n`` distinct seeds and aggregate.

    Each trial builds its own simulator from its seed, so trials are
    independent and individually reproducible.

    ``workers=1`` (the default) is the serial fast path: the plain loop
    below, no multiprocessing machinery, exceptions propagate as they
    always have.  ``workers>1`` shards the sweep across processes via
    :mod:`repro.fleet`; results are reduced in seed order, so the
    returned aggregate is bit-for-bit identical to the serial one.  In
    that mode a trial that keeps failing (after one retry) raises
    :class:`repro.fleet.CampaignError` — use
    :func:`repro.fleet.run_campaign` directly when partial results plus
    recorded failures are wanted instead.
    """
    if workers <= 1:
        stats = TrialStats()
        for i in range(n):
            stats.add(trial(seed_base + i))
        return stats
    from repro.fleet import CampaignError, run_campaign

    result = run_campaign(n, trial, seed_base=seed_base, workers=workers)
    if result.failures:
        raise CampaignError(result.failures)
    stats = result.stats
    assert stats is not None  # numeric by contract of this API
    return stats
