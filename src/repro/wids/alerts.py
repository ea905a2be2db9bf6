"""WIDS alerts: what a detector's accumulated evidence becomes.

An :class:`Alert` is the unit the correlation engine emits — one per
``(detector, subject)`` pair, opened the instant accumulated evidence
crosses the detector's threshold and updated (never duplicated) as
further evidence for the same pair arrives.  Alerts carry the lineage
``trace_id`` of every contributing frame (bounded), so
``python -m repro run EXP --trace --follow ID`` can reconstruct the
causal chain behind any alert when the flight recorder was active.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Alert", "MAX_TRACE_IDS"]

# Alerts keep at most this many contributing frame lineage ids — enough
# to seed `run --trace --follow` without growing without bound under floods.
MAX_TRACE_IDS = 16


@dataclass
class Alert:
    """One correlated detection: a subject a detector decided is hostile.

    ``t`` is the threshold-crossing time (when the alert *opened*), the
    number the time-to-detect evaluation measures; ``first_evidence_t``
    and ``last_evidence_t`` bracket every frame that contributed.
    """

    detector: str                 # registry name of the detector
    subject: str                  # what's being accused (BSSID, SSID, ...)
    t: float                      # sim time the threshold was crossed
    score: float                  # accumulated evidence score
    count: int                    # number of contributing detections
    first_evidence_t: float
    last_evidence_t: float
    reason: str = ""
    trace_ids: list[int] = field(default_factory=list)

    @property
    def severity(self) -> str:
        """Coarse triage bucket from how far past threshold we are."""
        if self.score >= 10.0:
            return "critical"
        if self.score >= 3.0:
            return "high"
        return "warn"

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "subject": self.subject,
            "t": self.t,
            "score": self.score,
            "count": self.count,
            "first_evidence_t": self.first_evidence_t,
            "last_evidence_t": self.last_evidence_t,
            "severity": self.severity,
            "reason": self.reason,
            "trace_ids": list(self.trace_ids),
        }

    def add_trace_id(self, trace_id: Optional[int]) -> None:
        if trace_id is None:
            return
        if len(self.trace_ids) < MAX_TRACE_IDS and trace_id not in self.trace_ids:
            self.trace_ids.append(trace_id)
