"""`repro.wids` — streaming wireless intrusion detection.

The defensive subsystem §2.3 sketches and the WIDS literature names:
pluggable detectors (:mod:`~repro.wids.detectors`) consume
monitor-mode frames live, an alert correlator
(:mod:`~repro.wids.correlate`) turns evidence into deduplicated,
scored, lineage-linked :class:`~repro.wids.alerts.Alert`\\ s, and an
evaluation harness (:mod:`~repro.wids.evaluation`) scores every
detector against scenario-derived ground truth with mergeable metrics
the fleet can reduce.

Feeds come in two forms: :meth:`WidsEngine.attach` taps any
:class:`~repro.dot11.capture.FrameCapture` (an in-world sniffer), and
the ambient :func:`wids_watch` context observes every medium without
placing a radio in the world at all (zero-perturbation).

One :class:`~repro.wids.correlate.AlertCorrelator` per engine turns
evidence into alerts, and one :class:`~repro.wids.engine.CrossingMap`
per engine records every threshold's first crossing; evaluation reads
the live engine's map, or scans a capture no live engine saw whole.

This package deliberately does **not** import
:mod:`repro.wids.experiment` here, so importing ``repro.wids`` never
drags in scenarios.
"""

from repro.wids.alerts import Alert
from repro.wids.correlate import AlertCorrelator
from repro.wids.detectors import (
    DETECTORS,
    Detection,
    Detector,
    SeqCtlMonitor,
    SpoofVerdict,
    default_detectors,
    register,
)
from repro.wids.engine import WidsEngine
from repro.wids.evaluation import (
    GroundTruth,
    Scorecard,
    evaluate,
    evaluate_with_crossings,
)
from repro.wids.runtime import WidsWatch, wids_watch

__all__ = [
    "Alert",
    "AlertCorrelator",
    "DETECTORS",
    "Detection",
    "Detector",
    "GroundTruth",
    "Scorecard",
    "SeqCtlMonitor",
    "SpoofVerdict",
    "WidsEngine",
    "WidsWatch",
    "default_detectors",
    "evaluate",
    "evaluate_with_crossings",
    "register",
    "wids_watch",
]
