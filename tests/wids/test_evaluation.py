"""Evaluation harness: confusion cells, ROC, ttd, and the merge law.

The two reference implementations the single-scan :func:`evaluate` is
diffed against live here: :func:`evaluate_rescan` (a full engine rescan
per detector and threshold, trusted by construction) and
:func:`score_trajectory` + :func:`_first_crossing_t` (the recorded
evidence trajectory of one detector, scanned per threshold).
"""

import json
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dot11.capture import CapturedFrame, FrameCapture
from repro.dot11.frames import make_beacon, make_deauth, make_probe_response
from repro.dot11.ies import IeId, InformationElement
from repro.dot11.mac import BROADCAST, MacAddress
from repro.obs import collecting
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import installed, instruments
from repro.wids.detectors import DETECTORS, Detector
from repro.wids.engine import WidsEngine
from repro.wids.evaluation import (GroundTruth, Scorecard, ScoreRow,
                                   _thr_token, _thr_value, evaluate,
                                   evaluate_with_crossings)
from tests.wids.oracles import own_beacon

AP = MacAddress("aa:bb:cc:dd:00:01")


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------

def evaluate_rescan(
    capture: FrameCapture,
    truth: GroundTruth,
    *,
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Full engine rescan per (detector, threshold).

    O(frames x detectors x thresholds), trusted by construction: each
    cell is whether a real engine at that threshold alerts at all.
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

    for name, cls in DETECTORS.items():
        for threshold in cls.SWEEP:
            detector = cls()
            detector.threshold = threshold  # this cell's rung of the ladder
            engine = WidsEngine([detector])
            with installed(metrics=None):
                engine.scan(capture)
            alerted = bool(engine.alerts)
            if truth.rogue_present:
                cell = "tp" if alerted else "fn"
            else:
                cell = "fp" if alerted else "tn"
            incr(f"wids.eval.{name}.{_thr_token(threshold)}.{cell}")
            if (alerted and truth.rogue_present
                    and threshold == cls.threshold):
                first = engine.alerts[0]
                add_time(f"wids.eval.{name}.ttd_s",
                         max(0.0, first.t - truth.attack_start_s))
    return local


def score_trajectory(
    detector: Detector, capture: FrameCapture
) -> List[Tuple[float, str, float]]:
    """One detector's evidence trajectory over a capture, stream order.

    Each element is ``(t, subject, cumulative_score)``: the subject's
    running evidence total *after* folding that event in, by the same
    float additions the correlator performs.
    """
    events: List[Tuple[float, str, float]] = []
    totals: Dict[str, float] = {}
    for cap in list(capture.frames):
        t = cap.time
        detection = detector.observe(cap, own_beacon(cap))
        if detection is None:
            continue
        cum = totals.get(detection.subject, 0.0) + detection.score
        totals[detection.subject] = cum
        events.append((t, detection.subject, cum))
    return events


def _first_crossing_t(
    events: List[Tuple[float, str, float]], threshold: float
) -> Optional[float]:
    """Time of the first alert a correlator at ``threshold`` would open:
    the first event, in stream order, whose cumulative score reaches it."""
    for t, _subject, cum in events:
        if cum >= threshold:
            return t
    return None


def _cap(frame, t=0.0, ch=1):
    return CapturedFrame(time=t, channel=ch, rssi_dbm=-50.0, frame=frame)


def _rogue_capture():
    """The legit AP plus an evil twin on channel 6 — fingerprint and
    multichannel evidence on every twin beacon."""
    capture = FrameCapture()
    tbtt = 100 * 1024e-6
    for i in range(30):
        capture.add(_cap(make_beacon(AP, "CORP", 1, seq=i), t=i * tbtt, ch=1))
        capture.add(_cap(make_beacon(AP, "CORP", 6, seq=3000 + i),
                         t=i * tbtt + 0.01, ch=6))
    return capture


def _benign_capture():
    capture = FrameCapture()
    tbtt = 100 * 1024e-6
    for i in range(30):
        capture.add(_cap(make_beacon(AP, "CORP", 1, seq=i), t=i * tbtt, ch=1))
    return capture


def test_thr_token_roundtrip():
    for thr in (1.0, 2.0, 13.0, 0.5, 2.5):
        assert _thr_value(_thr_token(thr)) == thr
    assert _thr_token(3.0) == "thr3"
    assert _thr_token(0.5) == "thr0_5"


def test_evaluate_rogue_world_scores_tp():
    reg = evaluate(_rogue_capture(), GroundTruth(rogue_present=True))
    # fingerprint + multichannel see the twin at every threshold
    for det in ("fingerprint", "multichannel"):
        for thr in DETECTORS[det].SWEEP:
            assert reg.value(f"wids.eval.{det}.{_thr_token(thr)}.tp") == 1
    # deauth-flood has nothing to find in a beacon-only world
    thr = _thr_token(DETECTORS["deauth-flood"].threshold)
    assert reg.value(f"wids.eval.deauth-flood.{thr}.fn") == 1
    # ttd recorded at the default threshold only, >= 0
    card = Scorecard.from_registry(reg)
    assert card.mean_ttd_s("fingerprint") is not None
    assert card.mean_ttd_s("fingerprint") >= 0.0
    assert card.ttd("deauth-flood") is None


def test_evaluate_benign_world_scores_tn():
    reg = evaluate(_benign_capture(), GroundTruth(rogue_present=False))
    for det, cls in DETECTORS.items():
        for thr in cls.SWEEP:
            assert reg.value(f"wids.eval.{det}.{_thr_token(thr)}.tn") == 1
            assert reg.value(f"wids.eval.{det}.{_thr_token(thr)}.fp") == 0


def test_evaluate_writes_ambient_registry_too():
    with collecting() as col:
        local = evaluate(_rogue_capture(), GroundTruth(rogue_present=True))
    ambient = col.registry.subtree("wids.eval")
    assert ambient  # the fleet-shipped copy
    for name, metric in local.subtree("wids.eval").items():
        assert ambient[name].to_dict() == metric.to_dict()
    # and sweep replays don't pollute the live wids.* counters
    assert col.registry.value("wids.frames") == 0


def test_evaluate_attack_start_offsets_ttd():
    late = evaluate(_rogue_capture(), GroundTruth(rogue_present=True,
                                                  attack_start_s=0.0))
    card = Scorecard.from_registry(late)
    base = card.mean_ttd_s("multichannel")
    offset = evaluate(_rogue_capture(),
                      GroundTruth(rogue_present=True, attack_start_s=0.01))
    card2 = Scorecard.from_registry(offset)
    assert abs(card2.mean_ttd_s("multichannel") - (base - 0.01)) < 1e-9


def test_scorecard_rows_rates_and_roc():
    reg = MetricsRegistry()
    evaluate(_rogue_capture(), GroundTruth(rogue_present=True), registry=reg)
    evaluate(_benign_capture(), GroundTruth(rogue_present=False), registry=reg)
    card = Scorecard.from_registry(reg)
    assert set(card.detectors()) == set(DETECTORS)
    fp_rows = [r for r in card.rows() if r.detector == "fingerprint"]
    assert [r.threshold for r in fp_rows] == sorted(DETECTORS["fingerprint"].SWEEP)
    for r in fp_rows:
        assert (r.tp, r.fp, r.fn, r.tn) == (1, 0, 0, 1)
        assert r.precision == 1.0 and r.recall == 1.0
        assert r.tpr == 1.0 and r.fpr == 0.0
    roc = card.roc("fingerprint")
    assert [p[2] for p in roc] == sorted(DETECTORS["fingerprint"].SWEEP,
                                         reverse=True)
    assert all(p[0] == 0.0 and p[1] == 1.0 for p in roc)


def test_scorecard_merge_law_serial_equals_split():
    """Two per-world registries merged == one registry over both worlds."""
    serial = MetricsRegistry()
    evaluate(_rogue_capture(), GroundTruth(rogue_present=True),
             registry=serial)
    evaluate(_benign_capture(), GroundTruth(rogue_present=False),
             registry=serial)

    a = evaluate(_rogue_capture(), GroundTruth(rogue_present=True))
    b = evaluate(_benign_capture(), GroundTruth(rogue_present=False))
    merged = MetricsRegistry()
    merged.merge(a)
    merged.merge(b)

    assert merged.snapshot() == serial.snapshot()
    assert json.dumps(Scorecard.from_registry(merged).to_json_dict(),
                      sort_keys=True) == \
        json.dumps(Scorecard.from_registry(serial).to_json_dict(),
                   sort_keys=True)


def test_scorecard_snapshot_roundtrip_and_report():
    reg = evaluate(_rogue_capture(), GroundTruth(rogue_present=True))
    card = Scorecard.from_registry(reg)
    clone = Scorecard.from_snapshot(reg.snapshot())
    assert clone.to_json_dict() == card.to_json_dict()
    text = card.report()
    assert "WIDS evaluation scorecard" in text
    assert "fingerprint" in text and "mean_ttd_s" in text


def test_single_pass_matches_rescan_differential():
    """Single-scan cells == per-threshold rescan, bit for bit, on every
    world shape: rogue (with ttd timers) and benign (tn-only) alike."""
    worlds = [
        (_rogue_capture(), GroundTruth(rogue_present=True,
                                       attack_start_s=0.005)),
        (_benign_capture(), GroundTruth(rogue_present=False)),
    ]
    for capture, truth in worlds:
        fast = evaluate(capture, truth)
        slow = evaluate_rescan(capture, truth)
        assert fast.snapshot() == slow.snapshot()


def test_crossings_match_engine_first_alert():
    from repro.wids.engine import WidsEngine

    capture = _rogue_capture()
    _reg, crossings = evaluate_with_crossings(
        capture, GroundTruth(rogue_present=True))
    for det, cls in DETECTORS.items():
        assert set(crossings[det]) == set(cls.SWEEP)
        engine = WidsEngine([cls()])
        engine.scan(capture)
        expected = engine.alerts[0].t if engine.alerts else None
        assert crossings[det][cls.threshold] == expected


def _one_point_card(tp, fp, fn, tn):
    return Scorecard([ScoreRow(detector="d", threshold=1.0,
                               tp=tp, fp=fp, fn=fn, tn=tn)], {})


def test_auc_degenerate_rocs():
    # a single perfect operating point (fpr=0, tpr=1) closes to area 1.0
    assert _one_point_card(tp=1, fp=0, fn=0, tn=1).auc("d") == 1.0
    # never-alert (0, 0) and always-alert (1, 1) both close to chance
    assert _one_point_card(tp=0, fp=0, fn=1, tn=1).auc("d") == 0.5
    assert _one_point_card(tp=1, fp=1, fn=0, tn=0).auc("d") == 0.5
    # no rows for the detector at all -> None, and json carries the value
    card = _one_point_card(tp=1, fp=0, fn=0, tn=1)
    assert card.auc("missing") is None
    assert card.to_json_dict()["auc"] == {"d": 1.0}
    assert "auc" in card.report()


def test_scorecard_empty_registry():
    card = Scorecard.from_registry(MetricsRegistry())
    assert card.rows() == [] and card.detectors() == []
    assert card.mean_ttd_s("fingerprint") is None
    assert card.to_json_dict() == {"rows": [], "roc": {}, "auc": {},
                                   "time_to_detect_s": {}}


# ----------------------------------------------------------------------
# single scan == oracles over generated captures
# ----------------------------------------------------------------------

TWIN = MacAddress("aa:bb:cc:dd:00:02")
CLIENT = MacAddress("00:02:2d:00:00:07")

#: One generated event: (radio, own address, dt, kind, seq step,
#: interval TU, privacy, air channel, advertised channel, RSN body, CSA,
#: burst).
_EVENTS = st.tuples(
    st.integers(0, 1),
    st.sampled_from((False, False, True)),
    st.floats(0.0, 0.3, allow_nan=False),
    st.sampled_from(("beacon", "beacon", "beacon", "probe", "deauth")),
    st.sampled_from((1, 1, 1, 2, 100, 3000)),
    st.sampled_from((100, 100, 100, 50, 0)),
    st.booleans(),
    st.sampled_from((1, 1, 6)),
    st.sampled_from((1, 1, 6)),
    st.sampled_from((None, None, b"\x01\x00", b"\x01\x00\x80")),
    st.sampled_from((False, False, False, True)),
    st.integers(1, 12),
)


@st.composite
def _worlds(draw):
    """A capture from two radios sharing ``AP`` as their BSSID (radio 1
    sometimes transmitting from its own address ``TWIN``), with jittered
    times, diverging seq counters and configuration, and deauth bursts;
    plus a ground-truth label."""
    capture = FrameCapture()
    seqs = [draw(st.integers(0, 4095)), draw(st.integers(0, 4095))]
    t = 0.0
    for (radio, own, dt, kind, step, interval, privacy, air_ch, adv_ch,
         rsn, csa, burst) in draw(st.lists(_EVENTS, max_size=50)):
        t += dt
        seqs[radio] = (seqs[radio] + step) % 4096
        src = TWIN if radio == 1 and own else AP
        extra = []
        if rsn is not None:
            extra.append(InformationElement(IeId.RSN, rsn))
        if csa:
            extra.append(InformationElement(IeId.CHANNEL_SWITCH,
                                            b"\x01\x06\x03"))
        if kind == "deauth":
            for i in range(burst):
                capture.add(_cap(make_deauth(src, BROADCAST, AP,
                                             seq=(seqs[radio] + i) % 4096),
                                 t=t + i * 0.01, ch=air_ch))
            continue
        if kind == "beacon":
            frame = make_beacon(AP, "CORP", adv_ch, privacy=privacy,
                                interval_tu=interval, seq=seqs[radio],
                                extra_ies=extra)
        else:
            frame = make_probe_response(AP, CLIENT, "CORP", adv_ch,
                                        privacy=privacy, seq=seqs[radio],
                                        extra_ies=extra)
        if src is TWIN:
            frame = replace(frame, addr2=TWIN)
        capture.add(_cap(frame, t=t, ch=air_ch))
    truth = GroundTruth(rogue_present=draw(st.booleans()),
                        attack_start_s=draw(st.floats(0.0, 2.0)))
    return capture, truth


@settings(max_examples=60, deadline=None)
@given(_worlds())
def test_single_scan_matches_oracles(world):
    """Every detector x SWEEP crossing equals the trajectory oracle's,
    and the cells and ttd timers equal the rescan oracle's."""
    capture, truth = world
    reg, crossings = evaluate_with_crossings(capture, truth)
    for name, cls in DETECTORS.items():
        events = score_trajectory(cls(), capture)
        assert crossings[name] == {thr: _first_crossing_t(events, thr)
                                   for thr in cls.SWEEP}
    assert reg.snapshot() == evaluate_rescan(capture, truth).snapshot()
