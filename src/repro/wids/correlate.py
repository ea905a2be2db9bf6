"""Alert correlation: evidence streams in, deduplicated alerts out.

Detectors emit :class:`~repro.wids.detectors.Detection` evidence per
frame; the correlator accumulates it per ``(detector, subject)`` pair
and opens exactly one :class:`~repro.wids.alerts.Alert` the instant the
accumulated score crosses the detector's threshold.  Evidence arriving
after that *updates* the open alert (score, count, last-seen time,
contributing trace_ids) rather than duplicating it — a deauth flood is
one alert with a rising score, not ten thousand.

Memory under alert floods is bounded by ``max_evidence``: when the
evidence map outgrows the bound, the oldest *alert-less* entries are
evicted in insertion order (entries with an open alert are never
evicted — the alert must keep updating).  Eviction trades exactness
for a memory ceiling: a re-appearing evicted subject restarts its
accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.wids.alerts import MAX_TRACE_IDS, Alert
from repro.wids.detectors import Detection

__all__ = ["AlertCorrelator"]


@dataclass(slots=True)
class _Evidence:
    """Accumulated evidence for one (detector, subject) pair."""

    score: float = 0.0
    count: int = 0
    first_t: float = 0.0
    last_t: float = 0.0
    reason: str = ""
    trace_ids: List[int] = field(default_factory=list)
    alert: Optional[Alert] = None


class AlertCorrelator:
    """Dedup, score, and timestamp detections into alerts.

    Alerts appear in :attr:`alerts` in threshold-crossing order, which
    is deterministic because frames arrive in simulation order.

    ``max_evidence`` bounds the evidence map (``None`` = unbounded):
    past the bound, the oldest alert-less entries are evicted in
    insertion order and counted in :attr:`evicted`.
    """

    def __init__(self, *, max_evidence: Optional[int] = None) -> None:
        if max_evidence is not None and max_evidence < 1:
            raise ValueError("max_evidence must be >= 1 or None")
        self._evidence: Dict[Tuple[str, str], _Evidence] = {}
        self.alerts: List[Alert] = []
        self.max_evidence = max_evidence
        self.evicted = 0

    def ingest(self, detector: str, threshold: float, detection: Detection,
               t: float, trace_id: Optional[int] = None) -> Optional[Alert]:
        """Fold one detection in; return the alert iff it *newly* opened."""
        key = (detector, detection.subject)
        ev = self._evidence.get(key)
        if ev is None:
            ev = _Evidence(first_t=t)
            self._evidence[key] = ev
            if self.max_evidence is not None \
                    and len(self._evidence) > self.max_evidence:
                self._evict()
        ev.score += detection.score
        ev.count += 1
        ev.last_t = t
        if detection.reason:
            ev.reason = detection.reason  # keep the freshest explanation
        if trace_id is not None and len(ev.trace_ids) < MAX_TRACE_IDS \
                and trace_id not in ev.trace_ids:
            ev.trace_ids.append(trace_id)
        if ev.alert is not None:
            # The open alert *shares* the evidence trace_ids list, so the
            # update path is O(1) — no per-event list copy.
            alert = ev.alert
            alert.score = ev.score
            alert.count = ev.count
            alert.last_evidence_t = ev.last_t
            alert.reason = ev.reason
            return None
        if ev.score >= threshold:
            alert = Alert(
                detector=detector,
                subject=detection.subject,
                t=t,
                score=ev.score,
                count=ev.count,
                first_evidence_t=ev.first_t,
                last_evidence_t=ev.last_t,
                reason=ev.reason,
                trace_ids=ev.trace_ids,  # shared; to_dict() copies
            )
            ev.alert = alert
            self.alerts.append(alert)
            return alert
        return None

    def _evict(self) -> None:
        """Drop the oldest alert-less evidence entries past the bound.

        Insertion order *is* dict order, so the scan is oldest-first and
        deterministic.  Entries with an open alert survive — their alert
        object must keep tracking fresh evidence.
        """
        over = len(self._evidence) - self.max_evidence
        if over <= 0:
            return
        doomed = []
        for key, ev in self._evidence.items():
            if ev.alert is None:
                doomed.append(key)
                if len(doomed) >= over:
                    break
        for key in doomed:
            del self._evidence[key]
        self.evicted += len(doomed)

    def evidence_score(self, detector: str, subject: str) -> float:
        ev = self._evidence.get((detector, subject))
        return ev.score if ev is not None else 0.0

    def open_alert(self, detector: str, subject: str) -> Optional[Alert]:
        ev = self._evidence.get((detector, subject))
        return ev.alert if ev is not None else None

    @property
    def evidence_size(self) -> int:
        """Live evidence entries (the quantity ``max_evidence`` bounds)."""
        return len(self._evidence)
