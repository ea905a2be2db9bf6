"""Seed-order reduction: per-trial results → one deterministic aggregate.

The determinism guarantee of the fleet engine is enforced here: whatever
order trials *completed* in (dynamic scheduling, replaced workers),
reduction walks indices in ascending order, so the aggregate is
*bit-for-bit* identical to serial accumulation — not merely
statistically equivalent.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.campaign import TrialStats
from repro.obs.metrics import MetricsRegistry

__all__ = ["campaign_stats", "merge_snapshots"]


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


def campaign_stats(per_index: Dict[int, Any]) -> Optional[TrialStats]:
    """Reduce per-trial values into one :class:`TrialStats`, in seed order.

    Returns ``None`` when the campaign's values are not numeric (a sweep
    of experiment runners returns dict payloads; those aggregate as raw
    per-seed results instead).  Missing indices — trials that failed —
    contribute nothing, exactly as in a serial run that recorded the
    same failures.
    """
    values = [per_index[i] for i in sorted(per_index)]
    if not all(_is_numeric(v) for v in values):
        return None
    stats = TrialStats()
    for value in values:
        stats.add(value)
    return stats
