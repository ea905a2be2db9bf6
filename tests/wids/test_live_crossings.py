"""The live engine's crossing map against a fresh scan of its capture.

``evaluate_with_crossings`` copies the crossing map of a live
``WidsEngine`` when that engine saw exactly the capture's frames, and
scans the capture with fresh detectors otherwise.  Every world here is
evaluated both ways — once on its own capture, once on an unwatched
copy of the same frames — and both must give the same crossing map,
the same cells, the same ambient metrics, and the cells of the
per-threshold rescan oracle.  Which path ran is read off the number of
``DetectorBank.observe`` calls the evaluation made: none when it reused
the live map, one per frame when it scanned.
"""

from dataclasses import dataclass
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dot11.capture import CapturedFrame, FrameCapture
from repro.dot11.frames import BeaconInfo, FrameSubtype
from repro.obs import collecting
from repro.rsn.experiment import run_downgrade_world
from repro.wids import experiment
from repro.wids.detectors import (DETECTORS, Detection, Detector,
                                  DetectorBank, default_detectors)
from repro.wids.engine import Crossings, WidsEngine
from repro.wids.evaluation import GroundTruth, evaluate_with_crossings
from tests.wids.oracles import oracle_evaluate
from tests.wids.test_evaluation import _worlds, evaluate_rescan


@dataclass
class Scored:
    """One ``evaluate_with_crossings`` call and what it touched."""

    cells: dict
    crossings: Crossings
    ambient: dict
    observe_calls: int


def _evaluate(capture: FrameCapture, truth: GroundTruth) -> Scored:
    calls = []
    real = DetectorBank.observe

    def counting(bank, cap):
        calls.append(cap)
        return real(bank, cap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DetectorBank, "observe", counting)
        with collecting() as col:
            registry, crossings = evaluate_with_crossings(capture, truth)
    return Scored(registry.snapshot(), crossings, col.registry.snapshot(),
                  len(calls))


def _unwatched(frames: List[CapturedFrame]) -> FrameCapture:
    capture = FrameCapture()
    for cap in frames:
        capture.add(cap)
    return capture


def _assert_scan_equals_oracles(capture, truth, scored: Scored) -> None:
    assert scored.crossings == oracle_evaluate(capture, truth)[1]
    assert scored.cells == evaluate_rescan(capture, truth).snapshot()


def assert_reused(capture: FrameCapture, truth: GroundTruth) -> Scored:
    """The live map is reused, and equals a scan and the oracles."""
    reused = _evaluate(capture, truth)
    assert reused.observe_calls == 0
    scanned = _evaluate(_unwatched(capture.frames), truth)
    assert scanned.observe_calls == len(capture.frames)
    assert reused == Scored(scanned.cells, scanned.crossings,
                            scanned.ambient, 0)
    _assert_scan_equals_oracles(capture, truth, reused)
    return reused


def assert_scanned(capture: FrameCapture, truth: GroundTruth) -> Scored:
    """The capture is scanned, and scores what an unwatched copy does."""
    scored = _evaluate(capture, truth)
    assert scored.observe_calls == len(capture.frames)
    assert scored == _evaluate(_unwatched(capture.frames), truth)
    _assert_scan_equals_oracles(capture, truth, scored)
    return scored


# ----------------------------------------------------------------------
# the experiments' worlds
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def ewids_worlds():
    """E-WIDS's four worlds at seed 1, each capture with its live engine
    still attached, and its label."""
    scored = []
    real = experiment.evaluate

    def spy(capture, truth, **kwargs):
        scored.append((capture, truth))
        return real(capture, truth, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "evaluate", spy)
        experiment.exp_wids_eval(seed=1)
    return scored


@pytest.fixture(scope="module")
def naive_frames(ewids_worlds):
    return list(ewids_worlds[0][0].frames)


def test_ewids_worlds_reuse_the_live_map(ewids_worlds):
    assert len(ewids_worlds) == 4
    for capture, truth in ewids_worlds:
        assert_reused(capture, truth)


@pytest.mark.parametrize("mode", [None, "wpa2"], ids=["benign", "wpa2"])
def test_downgrade_worlds_reuse_the_live_map(mode):
    world, _summary = run_downgrade_world(1, mode=mode)
    truth = GroundTruth(rogue_present=mode is not None)
    assert world.engine.frames_seen == len(world.sniffer.capture.frames)
    assert_reused(world.sniffer.capture, truth)


@settings(max_examples=40, deadline=None)
@given(_worlds(), st.floats(0.0, 1.0))
def test_generated_captures_reuse_the_live_map_mid_run_and_at_the_end(
        world, split):
    """A live engine's map is reusable between any two frames: the map
    copied mid-run scores the prefix, and more frames leave it as it was."""
    source, truth = world
    frames = source.frames
    cut = int(split * len(frames))
    capture = FrameCapture()
    WidsEngine().attach(capture)
    for cap in frames[:cut]:
        capture.add(cap)
    early = assert_reused(capture, truth)
    frozen = {name: dict(row) for name, row in early.crossings.items()}
    for cap in frames[cut:]:
        capture.add(cap)
    assert_reused(capture, truth)
    assert early.crossings == frozen


# ----------------------------------------------------------------------
# every way an engine can miss part of the capture takes the scan
# ----------------------------------------------------------------------

TRUTH = GroundTruth(rogue_present=True)


@pytest.mark.parametrize("history", [False, True],
                         ids=["fresh-engine", "engine-with-history"])
def test_engine_attached_late_is_not_reused(naive_frames, history):
    """With ``history`` the engine has already processed one other frame,
    so its count and last frame match the capture's: only the record of
    when it was attached tells that it missed the capture's first frame."""
    capture = FrameCapture()
    capture.add(naive_frames[0])
    engine = WidsEngine()
    if history:
        engine.process(naive_frames[1])
    engine.attach(capture)
    for cap in naive_frames[1:]:
        capture.add(cap)
    assert engine.frames_seen == len(capture.frames) - 1 + history
    assert_scanned(capture, TRUTH)


def test_engine_with_its_own_detector_list_is_not_reused(naive_frames):
    capture = FrameCapture()
    WidsEngine(default_detectors()).attach(capture)
    for cap in naive_frames:
        capture.add(cap)
    assert_scanned(capture, TRUTH)


@pytest.mark.parametrize("at", [0.5, 1.0], ids=["mid-run", "at-the-end"])
def test_detached_engine_is_not_reused(naive_frames, at):
    capture = FrameCapture()
    detach = WidsEngine().attach(capture)
    cut = int(at * len(naive_frames))
    for cap in naive_frames[:cut]:
        capture.add(cap)
    detach()
    for cap in naive_frames[cut:]:
        capture.add(cap)
    assert_scanned(capture, TRUTH)


def test_capacity_eviction_is_not_reused(naive_frames):
    capture = FrameCapture(capacity=len(naive_frames) // 3)
    engine = WidsEngine()
    engine.attach(capture)
    for cap in naive_frames:
        capture.add(cap)
    assert engine.frames_seen == len(naive_frames) > len(capture.frames)
    assert_scanned(capture, TRUTH)


@pytest.mark.parametrize("edit", ["appended", "replaced"])
def test_frames_changed_without_the_tap_are_not_reused(naive_frames, edit):
    """A replaced last frame leaves the engine's count equal to the
    capture's length: only the last-frame check catches it."""
    capture = FrameCapture()
    engine = WidsEngine()
    engine.attach(capture)
    for cap in naive_frames[:-1]:
        capture.add(cap)
    if edit == "appended":
        capture.frames.append(naive_frames[-1])
    else:
        capture.frames[-1] = naive_frames[-1]
        assert engine.frames_seen == len(capture.frames)
    assert_scanned(capture, TRUTH)


class _LateDetector(Detector):
    """Registered after the engine was built: one unit per deauth."""

    name = "late-deauth"
    SWEEP = (1.0, 4.0)
    SUBTYPES = frozenset((FrameSubtype.DEAUTH,))

    def observe(self, cap: CapturedFrame,
                beacon: Optional[BeaconInfo]) -> Optional[Detection]:
        if cap.frame.subtype is not FrameSubtype.DEAUTH:
            return None
        return Detection(subject=str(cap.frame.addr2))


def test_detector_registered_after_construction_is_not_reused(
        ewids_worlds, monkeypatch):
    deauth_capture, truth = ewids_worlds[2]  # the deauth-flood world
    monkeypatch.setitem(DETECTORS, _LateDetector.name, _LateDetector)
    scored = assert_scanned(deauth_capture, truth)
    assert scored.crossings[_LateDetector.name][1.0] is not None


class _EvaluatingTap:
    """A tap that evaluates the capture as each frame lands."""

    def __init__(self, capture: FrameCapture) -> None:
        self.capture = capture
        self.observe_calls: List[int] = []
        self.maps: List[Crossings] = []

    def __call__(self, cap: CapturedFrame) -> None:
        scored = _evaluate(self.capture, TRUTH)
        self.observe_calls.append(scored.observe_calls)
        self.maps.append(scored.crossings)


@pytest.mark.parametrize("before_engine", [True, False],
                         ids=["before-engine", "after-engine"])
def test_evaluate_from_inside_another_tap(naive_frames, before_engine):
    """A tap that runs before the engine's sees a frame the engine has
    not folded yet, and must scan; one that runs after it may reuse."""
    frames = naive_frames[:60]
    capture = FrameCapture()
    tap = _EvaluatingTap(capture)
    if before_engine:
        capture.tap(tap)
    WidsEngine().attach(capture)
    if not before_engine:
        capture.tap(tap)
    for cap in frames:
        capture.add(cap)
    if before_engine:
        assert tap.observe_calls == list(range(1, len(frames) + 1))
    else:
        assert tap.observe_calls == [0] * len(frames)
    for i, crossings in enumerate(tap.maps, start=1):
        assert crossings == _evaluate(_unwatched(frames[:i]), TRUTH).crossings
