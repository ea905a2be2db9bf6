"""Unrouted, undeduplicated WIDS scoring: the oracle for ``DetectorBank``.

The bank routes a frame only to the detectors whose ``SUBTYPES`` name
its subtype and decodes a beacon once for all of them.  The oracle here
does neither: every detector sees every frame, and each call decodes the
beacon afresh with the uncached decoder kept in
``tests/dot11/test_beacon_cache.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.dot11.capture import CapturedFrame, FrameCapture
from repro.dot11.frames import BeaconInfo
from repro.obs.metrics import MetricsRegistry
from repro.sim.errors import ProtocolError
from repro.wids.alerts import Alert
from repro.wids.correlate import AlertCorrelator
from repro.wids.detectors import DETECTORS, Detection, Detector
from repro.wids.evaluation import GroundTruth, _thr_token
from tests.dot11.test_beacon_cache import oracle_parse


def own_beacon(cap: CapturedFrame) -> Optional[BeaconInfo]:
    """The frame's beacon, decoded from scratch; ``None`` for a frame
    that is not a beacon or probe response, or does not decode."""
    try:
        return oracle_parse(cap.frame)
    except ProtocolError:
        return None


def observe_unrouted(detectors: Iterable[Detector],
                     cap: CapturedFrame) -> List[Tuple[Detector, Detection]]:
    """Every detector sees the frame, each with its own decode."""
    hits = []
    for detector in detectors:
        detection = detector.observe(cap, own_beacon(cap))
        if detection is not None:
            hits.append((detector, detection))
    return hits


def oracle_alerts(capture: FrameCapture) -> List[Alert]:
    """What ``WidsEngine().scan(capture)`` must alert."""
    detectors = [cls() for cls in DETECTORS.values()]
    correlator = AlertCorrelator()
    for cap in capture.frames:
        for detector, detection in observe_unrouted(detectors, cap):
            correlator.ingest(detector.name, detector.threshold, detection,
                              cap.time, cap.frame.trace_id)
    return correlator.alerts


def oracle_evaluate(
    capture: FrameCapture, truth: GroundTruth,
) -> Tuple[MetricsRegistry, Dict[str, Dict[float, Optional[float]]]]:
    """What ``evaluate_with_crossings(capture, truth)`` must return: every
    threshold's first crossing from per-subject running totals, then the
    cells and the default-threshold time-to-detect."""
    detectors = [cls() for cls in DETECTORS.values()]
    totals: Dict[Tuple[str, str], float] = {}
    crossings: Dict[str, Dict[float, Optional[float]]] = {
        d.name: dict.fromkeys(d.SWEEP) for d in detectors}
    for cap in capture.frames:
        for detector, detection in observe_unrouted(detectors, cap):
            key = (detector.name, detection.subject)
            totals[key] = totals.get(key, 0.0) + detection.score
            row = crossings[detector.name]
            for threshold in row:
                if row[threshold] is None and totals[key] >= threshold:
                    row[threshold] = cap.time
    registry = MetricsRegistry()
    for detector in detectors:
        for threshold in detector.SWEEP:
            first_t = crossings[detector.name][threshold]
            alerted = first_t is not None
            if truth.rogue_present:
                cell = "tp" if alerted else "fn"
            else:
                cell = "fp" if alerted else "tn"
            registry.incr(f"wids.eval.{detector.name}."
                          f"{_thr_token(threshold)}.{cell}")
            if (alerted and truth.rogue_present
                    and threshold == detector.threshold):
                registry.add_time(f"wids.eval.{detector.name}.ttd_s",
                                  max(0.0, first_t - truth.attack_start_s))
    return registry, crossings
