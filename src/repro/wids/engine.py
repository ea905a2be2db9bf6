"""The WIDS engine: a detector bank wired to a frame feed.

One :class:`WidsEngine` owns one
:class:`~repro.wids.detectors.DetectorBank` of detector instances and
one :class:`~repro.wids.correlate.AlertCorrelator`.  It consumes frames
either live — :meth:`attach` taps a monitor-mode
:class:`~repro.dot11.capture.FrameCapture` via ``FrameCapture.tap`` —
or offline via :meth:`scan` over an existing capture.

The engine is strictly observational: it never touches the simulation
RNG, never schedules an event, and only *reads* frames, so attaching
or detaching it cannot change simulated results (the same
zero-perturbation discipline as :mod:`repro.obs`, pinned by the
determinism goldens).  Metrics go to the ambient registry,
``instruments().metrics``, when one is installed: ``wids.frames``,
``wids.evidence.<detector>``, ``wids.alerts`` and
``wids.alerts.<detector>``.  An offline replay that must not count
runs with ``installed(metrics=None)``.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.dot11.capture import CapturedFrame, FrameCapture
from repro.obs.runtime import instruments
from repro.wids.alerts import Alert
from repro.wids.correlate import AlertCorrelator
from repro.wids.detectors import Detector, DetectorBank, default_detectors

__all__ = ["WidsEngine"]


class WidsEngine:
    """A detector bank plus correlator consuming one frame stream.

    ``max_evidence`` bounds the correlator's evidence map so an alert
    flood cannot grow memory without bound.
    """

    def __init__(self, detectors: Optional[Iterable[Detector]] = None, *,
                 max_evidence: Optional[int] = None) -> None:
        self.bank = DetectorBank(
            detectors if detectors is not None else default_detectors())
        self.correlator = AlertCorrelator(max_evidence=max_evidence)
        self.frames_seen = 0

    # ------------------------------------------------------------------
    # feeds
    # ------------------------------------------------------------------
    def attach(self, capture: FrameCapture) -> Callable[[], None]:
        """Tap a capture live; returns the detach function."""
        return capture.tap(self.process)

    def scan(self, capture: FrameCapture) -> List[Alert]:
        """Offline replay of an existing capture, oldest first."""
        for cap in list(capture.frames):
            self.process(cap)
        return self.alerts

    # ------------------------------------------------------------------
    # the hot path
    # ------------------------------------------------------------------
    def process(self, cap: CapturedFrame) -> None:
        self.frames_seen += 1
        m = instruments().metrics
        if m is not None:
            m.incr("wids.frames")
        trace_id = cap.frame.trace_id
        for detector, detection in self.bank.observe(cap):
            if m is not None:
                m.incr(f"wids.evidence.{detector.name}")
            opened = self.correlator.ingest(
                detector.name, detector.threshold, detection,
                cap.time, trace_id)
            if opened is not None and m is not None:
                m.incr("wids.alerts")
                m.incr(f"wids.alerts.{detector.name}")

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def alerts(self) -> List[Alert]:
        return self.correlator.alerts

    def alerts_for(self, detector: str) -> List[Alert]:
        return [a for a in self.correlator.alerts if a.detector == detector]

    def first_alert(self) -> Optional[Alert]:
        return self.correlator.alerts[0] if self.correlator.alerts else None
