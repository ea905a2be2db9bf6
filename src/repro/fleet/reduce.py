"""Seed-order reduction: per-worker partials → one deterministic aggregate.

The determinism guarantee of the fleet engine is enforced here: whatever
order trials *completed* in (dynamic scheduling, retries, respawned
workers), reduction walks indices ``0..n-1`` in order, builds contiguous
per-chunk :class:`~repro.core.campaign.TrialStats` partials, and merges
them left-to-right.  Because ``TrialStats.merge`` concatenates the
underlying sample lists, the merged aggregate is *bit-for-bit* identical
to serial accumulation — not merely statistically equivalent.
"""

from __future__ import annotations

import math
from functools import reduce as _functools_reduce
from typing import Any, Dict, Optional, TypeVar

from repro.core.campaign import TrialStats
from repro.obs.metrics import MetricsRegistry

__all__ = ["campaign_stats", "merge_all", "merge_snapshots"]

M = TypeVar("M")


def merge_all(first: M, *rest: M) -> M:
    """Fold any mergeable accumulators (objects with ``merge``) into the first."""
    return _functools_reduce(lambda acc, part: acc.merge(part), rest, first)


def merge_snapshots(
    snapshots: Dict[int, dict]) -> Optional[MetricsRegistry]:
    """Fold per-seed registry snapshots into one registry, in seed order.

    The metrics counterpart of :func:`campaign_stats`: whatever order the
    snapshots were *produced* in, the fold walks seeds ascending, so the
    merged registry is bit-identical to a serial accumulation — the fleet
    merge law.  Backs :attr:`CampaignResult.merged_metrics`.  ``None``
    when empty.
    """
    if not snapshots:
        return None
    merged = MetricsRegistry()
    for seed in sorted(snapshots):
        merged.merge(MetricsRegistry.from_snapshot(snapshots[seed]))
    return merged


def _is_numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def campaign_stats(per_index: Dict[int, Any], n: int,
                   chunk: Optional[int] = None) -> Optional[TrialStats]:
    """Reduce per-trial values into one :class:`TrialStats`, in seed order.

    Returns ``None`` when the campaign's values are not numeric (a sweep
    of experiment runners returns dict payloads; those aggregate as raw
    per-seed results instead).  Missing indices — trials that failed all
    attempts — contribute nothing, exactly as in a serial run that
    recorded the same failures.
    """
    values = [per_index[i] for i in sorted(per_index)]
    if values and not all(_is_numeric(v) for v in values):
        return None
    chunk = chunk if chunk and chunk > 0 else max(1, math.ceil(n / 8))
    parts: list[TrialStats] = []
    for start in range(0, max(n, 1), chunk):
        part = TrialStats()
        for i in range(start, min(start + chunk, n)):
            if i in per_index:
                part.add(per_index[i])
        parts.append(part)
    return merge_all(TrialStats(), *parts)
