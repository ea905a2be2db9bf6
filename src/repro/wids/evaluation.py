"""Detection-quality evaluation: confusion matrices, ROC, time-to-detect.

Ground truth comes from the scenario itself — we *built* the world, so
we know whether a rogue is present and when the attack started.
:func:`evaluate` needs, per detector, the time each ``SWEEP``
threshold is first crossed: a :class:`~repro.wids.engine.CrossingMap`
folded over the capture's detection stream.  It takes that map from
wherever the stream has already been folded once:

* **From the live engine.** A :class:`~repro.wids.engine.WidsEngine`
  built on the registry's detectors, attached while the capture was
  empty and still attached, has folded every detection of every frame
  the capture holds (:func:`~repro.wids.engine.live_crossings` checks
  its frame count and last frame); its map is copied and no frame is
  scanned again.
* **Otherwise from one scan** of the finished capture, through a fresh
  :class:`~repro.wids.detectors.DetectorBank` of the registered
  detectors: each frame goes only to the detectors whose ``SUBTYPES``
  name its subtype, in registry order, and a beacon is decoded once
  for all of them.

Both give the same map.  Detector ``observe()`` is threshold-independent
(thresholds only gate the correlator), a fresh detector and the live
engine's see the same frames in the same order, and the correlator
opens its first alert at the first event where any subject's running
score reaches the threshold — the map's totals are the same float
additions it performs.  The per-threshold engine rescan, the
trajectory the map replaces, and an unrouted bank whose detectors each
decode every frame themselves are kept as oracles in the test suite,
which pins the cells and crossings to them, on both paths.

The scored decision per world:

=====================  ======================  =====================
                        rogue present           rogue absent
=====================  ======================  =====================
detector alerted        true positive (tp)      false positive (fp)
detector silent         false negative (fn)     true negative (tn)
=====================  ======================  =====================

Every cell is an obs-registry **counter** and time-to-detect is a
**timer**, so the scores obey the fleet ``merge()`` law: per-seed
registries reduce in seed order to exactly the counts a serial pass
would produce — ``sweep --wids`` merged scorecards are bit-identical
serial vs parallel for free.

Metric names::

    wids.eval.<detector>.thr<T>.{tp,fp,fn,tn}   counters, one world each
    wids.eval.<detector>.ttd_s                  timer, default threshold

:class:`Scorecard` renders any registry (or merged snapshot) holding
those names back into rows, ROC points, AUC, tables, and JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dot11.capture import FrameCapture
from repro.obs.metrics import CounterMetric, MetricsRegistry, TimerMetric
from repro.obs.runtime import instruments
from repro.wids.detectors import DETECTORS, DetectorBank
from repro.wids.engine import CrossingMap, Crossings, live_crossings

__all__ = [
    "GroundTruth",
    "Scorecard",
    "evaluate",
    "evaluate_with_crossings",
]

_CELLS = ("tp", "fp", "fn", "tn")


@dataclass(frozen=True)
class GroundTruth:
    """Scenario-derived label for one simulated world."""

    rogue_present: bool
    attack_start_s: float = 0.0


def _thr_token(threshold: float) -> str:
    """``3.0 -> "thr3"``, ``0.5 -> "thr0_5"`` (dot-free for metric names)."""
    return "thr" + f"{threshold:g}".replace(".", "_")


def _thr_value(token: str) -> float:
    return float(token[3:].replace("_", "."))


def _scan(capture: FrameCapture) -> Crossings:
    """The crossing map of one scan of ``capture`` by fresh detectors."""
    bank = DetectorBank(cls() for cls in DETECTORS.values())
    crossings = CrossingMap(bank.detectors)
    for cap in list(capture.frames):
        for detector, detection in bank.observe(cap):
            crossings.fold(detector, detection, cap.time)
    return crossings.crossings


def evaluate_with_crossings(
    capture: FrameCapture,
    truth: GroundTruth,
    *,
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[MetricsRegistry, Crossings]:
    """:func:`evaluate` that also returns the crossing map.

    The second return value maps ``detector -> {threshold: t}`` with the
    sim time a correlator at that threshold would open its first alert
    (``None`` = never) — every ``SWEEP`` point of every detector, the
    same map that produced the cells, so any operating point can be
    scored offline from it without re-running the world.
    """
    local = registry if registry is not None else MetricsRegistry()
    ambient = instruments().metrics

    def incr(name: str) -> None:
        local.incr(name)
        if ambient is not None and ambient is not local:
            ambient.incr(name)

    def add_time(name: str, seconds: float) -> None:
        local.add_time(name, seconds)
        if ambient is not None and ambient is not local:
            ambient.add_time(name, seconds)

    crossings = live_crossings(capture)
    if crossings is None:
        crossings = _scan(capture)

    for name, cls in DETECTORS.items():
        for threshold in cls.SWEEP:
            first_t = crossings[name][threshold]
            alerted = first_t is not None
            if truth.rogue_present:
                cell = "tp" if alerted else "fn"
            else:
                cell = "fp" if alerted else "tn"
            incr(f"wids.eval.{name}.{_thr_token(threshold)}.{cell}")
            if (alerted and truth.rogue_present
                    and threshold == cls.threshold):
                add_time(f"wids.eval.{name}.ttd_s",
                         max(0.0, first_t - truth.attack_start_s))
    return local, crossings


def evaluate(
    capture: FrameCapture,
    truth: GroundTruth,
    *,
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Score every registered detector over one world's capture.

    Every threshold cell of each ``SWEEP`` ladder comes from the first
    crossings of one fold over the capture's detection stream: the live
    engine's, when one saw the whole capture, else one scan.

    Writes ``wids.eval.*`` into ``registry`` (a fresh one when omitted)
    **and** into the ambient ``instruments().metrics`` registry when one is
    installed — the local copy keeps experiment payloads independent of
    ambient observability state (zero-perturbation), the ambient copy
    is what the fleet ships and merges.
    """
    local, _ = evaluate_with_crossings(capture, truth, registry=registry)
    return local


@dataclass
class ScoreRow:
    """One (detector, threshold) confusion cell set with derived rates."""

    detector: str
    threshold: float
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 0.0

    # recall and tpr coincide; both names kept for ROC readability
    @property
    def tpr(self) -> float:
        return self.recall

    @property
    def fpr(self) -> float:
        return self.fp / (self.fp + self.tn) if (self.fp + self.tn) else 0.0

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "threshold": self.threshold,
            "tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn,
            "precision": self.precision, "recall": self.recall,
            "fpr": self.fpr,
        }


class Scorecard:
    """Rows/ROC/tables over ``wids.eval.*`` metrics from any registry."""

    def __init__(self, rows: List[ScoreRow],
                 ttd: Dict[str, dict]) -> None:
        self._rows = rows
        self._ttd = ttd  # detector -> TimerMetric.to_dict()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "Scorecard":
        cells: Dict[Tuple[str, float], Dict[str, int]] = {}
        ttd: Dict[str, dict] = {}
        for metric_name, metric in registry.subtree("wids.eval").items():
            parts = metric_name.split(".")
            if parts[-1] == "ttd_s" and isinstance(metric, TimerMetric):
                ttd[".".join(parts[2:-1])] = metric.to_dict()
                continue
            if len(parts) < 5 or parts[-1] not in _CELLS:
                continue
            if not isinstance(metric, CounterMetric):
                continue
            detector = ".".join(parts[2:-2])
            try:
                threshold = _thr_value(parts[-2])
            except ValueError:
                continue
            cell = cells.setdefault((detector, threshold),
                                    dict.fromkeys(_CELLS, 0))
            cell[parts[-1]] = metric.value
        rows = [ScoreRow(detector=det, threshold=thr, **counts)
                for (det, thr), counts in cells.items()]
        rows.sort(key=lambda r: (r.detector, r.threshold))
        return cls(rows, ttd)

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "Scorecard":
        return cls.from_registry(MetricsRegistry.from_snapshot(snapshot))

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def rows(self) -> List[ScoreRow]:
        return list(self._rows)

    def detectors(self) -> List[str]:
        return sorted({r.detector for r in self._rows})

    def roc(self, detector: str) -> List[Tuple[float, float, float]]:
        """``(fpr, tpr, threshold)`` points, descending threshold."""
        points = [(r.fpr, r.tpr, r.threshold) for r in self._rows
                  if r.detector == detector]
        points.sort(key=lambda p: -p[2])
        return points

    def auc(self, detector: str) -> Optional[float]:
        """Trapezoidal area under the detector's ROC curve.

        The measured sweep points are closed with the implicit ROC
        endpoints ``(0, 0)`` (threshold -> infinity: never alert) and
        ``(1, 1)`` (threshold -> 0: always alert), so even a one-point
        sweep yields a meaningful area — a single perfect operating
        point ``(fpr=0, tpr=1)`` integrates to 1.0, and a single
        chance-line point to 0.5.  Returns ``None`` when the registry
        holds no rows for the detector.
        """
        points = self.roc(detector)
        if not points:
            return None
        pts = sorted((p[0], p[1]) for p in points)
        pts = [(0.0, 0.0)] + pts + [(1.0, 1.0)]
        area = 0.0
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            area += (x2 - x1) * (y1 + y2) / 2.0
        return area

    def ttd(self, detector: str) -> Optional[dict]:
        """Merged time-to-detect timer dict, or None if never detected."""
        return self._ttd.get(detector)

    def mean_ttd_s(self, detector: str) -> Optional[float]:
        t = self._ttd.get(detector)
        if not t or not t.get("count"):
            return None
        return t["total_s"] / t["count"]

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def report(self, *, title: str = "WIDS evaluation scorecard") -> str:
        # Imported here, not at module level: the radio layer imports
        # repro.wids (for the ambient watch), and repro.core imports
        # the radio layer — a module-level import would be a cycle.
        from repro.core.report import format_table
        aucs = {det: self.auc(det) for det in self.detectors()}
        rows = []
        for r in self._rows:
            mean_ttd = self.mean_ttd_s(r.detector)
            auc = aucs[r.detector]
            rows.append([
                r.detector, f"{r.threshold:g}", r.tp, r.fp, r.fn, r.tn,
                r.precision, r.recall, r.fpr,
                f"{auc:.3f}" if auc is not None else "-",
                f"{mean_ttd:.3f}" if mean_ttd is not None else "-",
            ])
        return format_table(
            ["detector", "thr", "tp", "fp", "fn", "tn",
             "precision", "recall", "fpr", "auc", "mean_ttd_s"],
            rows, title=title)

    def to_json_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self._rows],
            "roc": {det: [{"fpr": p[0], "tpr": p[1], "threshold": p[2]}
                          for p in self.roc(det)]
                    for det in self.detectors()},
            "auc": {det: self.auc(det) for det in self.detectors()},
            "time_to_detect_s": dict(self._ttd),
        }
