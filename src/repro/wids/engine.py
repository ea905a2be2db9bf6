"""The WIDS engine: a detector bank wired to a frame feed.

One :class:`WidsEngine` owns one
:class:`~repro.wids.detectors.DetectorBank` of detector instances, one
:class:`~repro.wids.correlate.AlertCorrelator` and one
:class:`CrossingMap`.  It consumes frames either live — :meth:`attach`
taps a monitor-mode :class:`~repro.dot11.capture.FrameCapture` via
``FrameCapture.tap`` — or offline via :meth:`scan` over an existing
capture.  Each detection the bank returns is folded once into both the
correlator (alerts at each detector's default threshold) and the
crossing map (the first crossing of every ``SWEEP`` threshold).

An engine attached to a capture while it was still empty, and built
on the registry's detectors, has folded exactly the detection stream
that :func:`~repro.wids.evaluation.evaluate` would get by scanning
that capture with fresh detectors; :func:`live_crossings` hands its
map to the evaluation so the capture is not scanned a second time.
The engine-to-capture link is kept here, in a weak map that
:meth:`attach` fills and its detach function clears, so the capture
itself carries no WIDS state.

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

import weakref
from typing import Callable, Dict, Iterable, List, Optional

from repro.dot11.capture import CapturedFrame, FrameCapture
from repro.obs.runtime import instruments
from repro.wids.alerts import Alert
from repro.wids.correlate import AlertCorrelator
from repro.wids.detectors import (DETECTORS, Detection, Detector,
                                  DetectorBank, default_detectors)

__all__ = ["CrossingMap", "WidsEngine", "live_crossings"]

#: ``detector -> {threshold: sim time of the first crossing, or None}``.
Crossings = Dict[str, Dict[float, Optional[float]]]


class CrossingMap:
    """First threshold crossings, folded one detection at a time.

    Per detector it keeps each subject's running evidence total and,
    for every ``SWEEP`` threshold, the time of the first detection whose
    total reaches it; no event list is stored.  The totals are the same
    float additions (``0.0 + s1 + s2 + ...``, stream order) the
    correlator performs, so the crossing at a detector's default
    threshold is the time of its first alert (unless ``max_evidence``
    evicted that subject's evidence first).
    """

    def __init__(self, detectors: Iterable[Detector]) -> None:
        self.crossings: Crossings = {}
        # Per detector: per-subject totals, its crossing row, and the
        # thresholds not yet crossed, ascending.
        self._scans = {}
        for detector in detectors:
            row = self.crossings[detector.name] = dict.fromkeys(
                detector.SWEEP)
            self._scans[detector] = ({}, row, sorted(set(detector.SWEEP)))

    def fold(self, detector: Detector, detection: Detection,
             t: float) -> None:
        totals, crossed, pending = self._scans[detector]
        cum = totals.get(detection.subject, 0.0) + detection.score
        totals[detection.subject] = cum
        while pending and pending[0] <= cum:
            crossed[pending.pop(0)] = t

    def copy(self) -> Crossings:
        return {name: dict(row) for name, row in self.crossings.items()}


#: Capture -> the engines attached to it while it was empty and still
#: attached.  Weak on the capture: the link never keeps a world alive.
_LIVE: "weakref.WeakKeyDictionary[FrameCapture, List[WidsEngine]]" = \
    weakref.WeakKeyDictionary()


class WidsEngine:
    """A detector bank plus correlator consuming one frame stream.

    ``max_evidence`` bounds the correlator's evidence map so an alert
    flood cannot grow memory without bound.
    """

    def __init__(self, detectors: Optional[Iterable[Detector]] = None, *,
                 max_evidence: Optional[int] = None) -> None:
        self._registry_bank = detectors is None
        self.bank = DetectorBank(
            detectors if detectors is not None else default_detectors())
        self.correlator = AlertCorrelator(max_evidence=max_evidence)
        self.crossings = CrossingMap(self.bank.detectors)
        self.frames_seen = 0
        self._last: Optional[CapturedFrame] = None

    # ------------------------------------------------------------------
    # feeds
    # ------------------------------------------------------------------
    def attach(self, capture: FrameCapture) -> Callable[[], None]:
        """Tap a capture live; returns the detach function."""
        untap = capture.tap(self.process)
        if capture.frames:
            return untap
        engines = _LIVE.setdefault(capture, [])
        engines.append(self)

        def detach() -> None:
            untap()
            if self in engines:
                engines.remove(self)

        return detach

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
        self._last = cap
        m = instruments().metrics
        if m is not None:
            m.incr("wids.frames")
        trace_id = cap.frame.trace_id
        for detector, detection in self.bank.observe(cap):
            self.crossings.fold(detector, detection, cap.time)
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


def live_crossings(capture: FrameCapture) -> Optional[Crossings]:
    """A copy of the crossing map a live engine folded over exactly
    ``capture``'s frames, or ``None`` when no engine qualifies.

    An engine qualifies when it runs the registry's detectors (built
    with ``detectors=None``, and nothing registered since), was attached
    while the capture was empty, is still attached, and has processed
    every frame the capture holds and no other: its frame count equals
    the capture's length and its last frame is the capture's last.
    That rules out a capture whose capacity evicted frames, frames added
    without the tap, and a call from a tap that runs before the engine's.
    """
    frames = capture.frames
    registry = list(DETECTORS.values())
    for engine in _LIVE.get(capture, ()):
        if (engine._registry_bank
                and engine.frames_seen == len(frames)
                and (not frames or engine._last is frames[-1])
                and [type(d) for d in engine.bank.detectors] == registry):
            return engine.crossings.copy()
    return None
