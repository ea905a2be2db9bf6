"""The detector bank against its unrouted oracle (``tests/wids/oracles.py``).

``DetectorBank`` sends each frame only to the detectors whose
``SUBTYPES`` name its subtype and decodes a beacon once for all of
them.  The oracle feeds every detector every frame, each with its own
uncached decode.  The live engine and the evaluation's scan both run
on the bank, so both must match the oracle: the same alerts, the same
cells, the same crossing map.  An evaluation of a capture that a live
engine watched whole reads that engine's map and decodes nothing.
"""

from typing import ClassVar, List, Optional

import pytest
from hypothesis import given, settings

from repro.dot11.capture import CapturedFrame, FrameCapture
from repro.dot11.frames import (BeaconInfo, Dot11Frame, FrameSubtype,
                                make_beacon, make_deauth, make_disassoc)
from repro.dot11.mac import BROADCAST, MacAddress
from repro.wids import experiment
from repro.wids.detectors import (DETECTORS, Detection, Detector,
                                  DetectorBank)
from repro.wids.engine import WidsEngine
from repro.wids.evaluation import GroundTruth, evaluate_with_crossings
from tests.wids.oracles import oracle_alerts, oracle_evaluate
from tests.wids.test_evaluation import _worlds

AP = MacAddress("aa:bb:cc:dd:00:01")
_BEACONS = (FrameSubtype.BEACON, FrameSubtype.PROBE_RESP)


def _assert_matches_oracle(capture: FrameCapture, truth: GroundTruth) -> None:
    engine = WidsEngine()
    engine.scan(capture)
    assert [a.to_dict() for a in engine.alerts] == \
        [a.to_dict() for a in oracle_alerts(capture)]
    registry, crossings = evaluate_with_crossings(capture, truth)
    oracle_registry, oracle_crossings = oracle_evaluate(capture, truth)
    assert crossings == oracle_crossings
    assert registry.snapshot() == oracle_registry.snapshot()


@settings(max_examples=60, deadline=None)
@given(_worlds())
def test_bank_matches_unrouted_oracle_on_generated_captures(world):
    capture, truth = world
    _assert_matches_oracle(capture, truth)


def test_bank_matches_unrouted_oracle_on_a_disassoc_flood():
    """The generated captures carry deauths only; disassociations count
    toward the same flood."""
    capture = FrameCapture()
    for i in range(30):
        make = make_disassoc if i % 3 else make_deauth
        capture.add(CapturedFrame(time=i * 0.05, channel=1, rssi_dbm=-50.0,
                                  frame=make(AP, BROADCAST, AP, seq=i)))
    _assert_matches_oracle(capture, GroundTruth(rogue_present=True))
    engine = WidsEngine()
    engine.scan(capture)
    assert [a.detector for a in engine.alerts] == ["deauth-flood"]


@pytest.fixture(scope="module")
def ewids_worlds():
    """E-WIDS's four worlds at seed 1: each capture, its label, and the
    alerts the live engine raised while the world ran."""
    scored = []
    real = experiment.evaluate

    def spy(capture, truth, **kwargs):
        scored.append((capture, truth))
        return real(capture, truth, **kwargs)

    mp = pytest.MonkeyPatch()
    mp.setattr(experiment, "evaluate", spy)
    try:
        result = experiment.exp_wids_eval(seed=1)
    finally:
        mp.undo()
    worlds = result["worlds"]
    live = [worlds[k]["alerts"]
            for k in ("naive", "evasive", "deauth", "benign")]
    return [(capture, truth, alerts)
            for (capture, truth), alerts in zip(scored, live)]


def test_bank_matches_unrouted_oracle_on_ewids_worlds(ewids_worlds):
    assert len(ewids_worlds) == 4
    for capture, truth, live_alerts in ewids_worlds:
        _assert_matches_oracle(capture, truth)
        engine = WidsEngine()
        engine.scan(capture)
        assert [a.to_dict() for a in engine.alerts] == live_alerts


class _DeauthOnlySpy(Detector):
    """Records every subtype it is handed; reads only deauths."""

    name = "spy-deauth-only"
    SUBTYPES = frozenset((FrameSubtype.DEAUTH,))
    seen: ClassVar[List[FrameSubtype]] = []

    def observe(self, cap: CapturedFrame,
                beacon: Optional[BeaconInfo]) -> Optional[Detection]:
        self.seen.append(cap.frame.subtype)
        return None


def test_narrow_subtypes_route_only_those_frames(ewids_worlds, monkeypatch):
    monkeypatch.setitem(DETECTORS, _DeauthOnlySpy.name, _DeauthOnlySpy)
    monkeypatch.setattr(_DeauthOnlySpy, "seen", [])
    capture, truth, _alerts = ewids_worlds[2]  # the deauth-flood world
    deauths = sum(1 for cap in capture.frames
                  if cap.frame.subtype is FrameSubtype.DEAUTH)
    assert 0 < deauths < len(capture.frames)

    engine = WidsEngine([_DeauthOnlySpy()])
    engine.scan(capture)
    assert _DeauthOnlySpy.seen == [FrameSubtype.DEAUTH] * deauths

    _DeauthOnlySpy.seen.clear()
    evaluate_with_crossings(capture, truth)
    assert _DeauthOnlySpy.seen == [FrameSubtype.DEAUTH] * deauths


def _count_beacon_decodes(monkeypatch) -> List[Dot11Frame]:
    decoded: List[Dot11Frame] = []
    real = Dot11Frame.parse_beacon

    def counting(self):
        decoded.append(self)
        return real(self)

    monkeypatch.setattr(Dot11Frame, "parse_beacon", counting)
    return decoded


def test_one_scan_decodes_each_beacon_once(ewids_worlds, monkeypatch):
    """Scanned without a live engine, every beacon is decoded once."""
    capture, truth, _alerts = ewids_worlds[0]  # the naive rogue world
    unwatched = FrameCapture()
    for cap in capture.frames:
        unwatched.add(cap)
    decoded = _count_beacon_decodes(monkeypatch)
    beacons = [cap.frame for cap in capture.frames
               if cap.frame.subtype in _BEACONS]
    assert beacons

    WidsEngine().scan(unwatched)
    assert decoded == beacons
    decoded.clear()
    evaluate_with_crossings(unwatched, truth)
    assert decoded == beacons


def test_live_engine_capture_evaluates_without_decoding(ewids_worlds,
                                                        monkeypatch):
    """The world's live engine already folded every beacon: evaluating
    its capture decodes none, and scores what the scan scores."""
    capture, truth, _alerts = ewids_worlds[0]
    decoded = _count_beacon_decodes(monkeypatch)
    registry, crossings = evaluate_with_crossings(capture, truth)
    assert decoded == []
    oracle_registry, oracle_crossings = oracle_evaluate(capture, truth)
    assert crossings == oracle_crossings
    assert registry.snapshot() == oracle_registry.snapshot()


def test_undecodable_beacon_reaches_detectors_as_none():
    seen = []

    class Probe(Detector):
        name = "probe"

        def observe(self, cap, beacon):
            seen.append(beacon)
            return None

    good = make_beacon(AP, "CORP", 1)
    short = Dot11Frame(subtype=FrameSubtype.BEACON, addr1=AP, addr2=AP,
                       addr3=AP, body=b"\x00" * 4)
    bank = DetectorBank([Probe()])
    for frame in (good, short):
        bank.observe(CapturedFrame(time=0.0, channel=1, rssi_dbm=-50.0,
                                   frame=frame))
    assert seen == [good.parse_beacon(), None]
