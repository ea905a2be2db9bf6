"""Synthetic alert storms: correlator load with zero simulation cost.

The correlator bench needs millions of evidence events per second —
no simulated world produces frames that fast, so the storm generator
fabricates the *detector output* directly: a deterministic stream of
``(detector, threshold, Detection, t, trace_id)`` tuples shaped
like a hostile airspace (a few hot subjects flooding, a long tail of
one-off subjects churning past).  Everything is pre-built so a timed
loop measures only :meth:`AlertCorrelator.ingest`, and the stream is a
pure function of the arguments (``random.Random(seed)``), so the bench
payload is repeat-deterministic.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.wids.correlate import AlertCorrelator
from repro.wids.detectors import Detection

__all__ = ["StormEvent", "alert_storm", "storm_digest"]

#: One pre-built evidence event:
#: ``(detector, threshold, detection, t, trace_id)``.
StormEvent = Tuple[str, float, Detection, float, Optional[int]]


def alert_storm(n: int, *, subjects: int = 64, detectors: int = 4,
                threshold: float = 50.0, churn: float = 0.0,
                seed: int = 7) -> List[StormEvent]:
    """Pre-build ``n`` evidence events for correlator benchmarking.

    ``subjects`` hot subjects are revisited uniformly at random (every
    pair eventually opens an alert and then hammers the update path —
    the hot path under a real flood); a ``churn`` fraction of events
    instead introduce a brand-new one-shot subject, which is what grows
    the evidence map and exercises eviction.
    """
    if not 0.0 <= churn <= 1.0:
        raise ValueError("churn must be in [0, 1]")
    rng = random.Random(seed)
    det_names = [f"storm-det-{i}" for i in range(detectors)]
    hot = [Detection(subject=f"storm:subj:{i:04d}", score=1.0,
                     reason="storm")
           for i in range(subjects)]
    events: List[StormEvent] = []
    churn_id = 0
    for i in range(n):
        detector = det_names[i % detectors]
        if churn and rng.random() < churn:
            detection = Detection(subject=f"storm:churn:{churn_id:08d}",
                                  score=1.0, reason="storm")
            churn_id += 1
        else:
            detection = hot[rng.randrange(subjects)]
        trace_id = i if i % 7 == 0 else None
        events.append((detector, threshold, detection, i * 1e-4, trace_id))
    return events


def storm_digest(correlator: AlertCorrelator) -> dict:
    """Deterministic summary of a correlator's end state after a storm.

    Used as the bench payload (repeat-identical).
    """
    alerts = correlator.alerts
    # Keys deliberately avoid ``_s`` substrings: bench payloads are
    # linted against timing-looking names.
    return {
        "alerts": len(alerts),
        "score": sum(a.score for a in alerts),
        "count": sum(a.count for a in alerts),
        "evidence": correlator.evidence_size,
        "evicted": correlator.evicted,
        "head": [a.subject for a in alerts[:4]],
    }
