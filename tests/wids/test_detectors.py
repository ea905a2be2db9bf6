"""Unit tests for the streaming detector bank (synthetic captures)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dot11.capture import CapturedFrame, FrameCapture
from repro.dot11.frames import (make_ack, make_beacon, make_data,
                                make_deauth, make_probe_response)
from repro.dot11.mac import BROADCAST, MacAddress
from repro.dot11.seqctl import SEQ_MODULO, SequenceCounter
from repro.wids.detectors import (DETECTORS, BeaconFingerprintDetector,
                                  BeaconJitterDetector, DeauthFloodDetector,
                                  Detector, MultiChannelSsidDetector,
                                  SeqCtlAnomalyDetector, SeqCtlMonitor,
                                  register)
from tests.wids.oracles import own_beacon

AP = MacAddress("aa:bb:cc:dd:00:01")
STA = MacAddress("00:02:2d:00:00:07")


def _cap(frame, t=0.0, ch=1):
    return CapturedFrame(time=t, channel=ch, rssi_dbm=-50.0, frame=frame)


def _detections(detector, caps):
    out = []
    for cap in caps:
        detection = detector.observe(cap, own_beacon(cap))
        if detection is not None:
            out.append(detection)
    return out


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

def test_registry_names_and_order():
    # Registration order is load order — determinism depends on it.
    assert list(DETECTORS) == ["seqctl", "fingerprint", "multichannel",
                               "beacon-jitter", "deauth-flood",
                               "rsn-mismatch", "unexpected-CSA"]


def test_register_rejects_duplicates_and_anonymous():
    class Nameless(Detector):
        pass

    with pytest.raises(ValueError):
        register(Nameless)

    class Clash(Detector):
        name = "seqctl"

    with pytest.raises(ValueError):
        register(Clash)
    assert DETECTORS["seqctl"] is SeqCtlAnomalyDetector  # untouched


def test_every_detector_sweeps_its_default_threshold():
    for name, cls in DETECTORS.items():
        assert cls.threshold in cls.SWEEP, name


# ----------------------------------------------------------------------
# seqctl (streaming)
# ----------------------------------------------------------------------

def test_seqctl_healthy_stream_is_silent():
    det = SeqCtlAnomalyDetector()
    caps = [_cap(make_data(STA, AP, AP, b"x", to_ds=True, seq=i), t=i * 0.01)
            for i in range(200)]
    assert _detections(det, caps) == []


def test_seqctl_large_gap_detected():
    det = SeqCtlAnomalyDetector()
    caps = [_cap(make_data(STA, AP, AP, b"x", to_ds=True, seq=10)),
            _cap(make_data(STA, AP, AP, b"x", to_ds=True, seq=2000))]
    found = _detections(det, caps)
    assert len(found) == 1
    assert found[0].subject == str(STA)
    assert "gap" in found[0].reason


def test_seqctl_ignores_acks_and_duplicates():
    det = SeqCtlAnomalyDetector()
    caps = [_cap(make_data(STA, AP, AP, b"x", to_ds=True, seq=5)),
            _cap(make_ack(STA)),  # no seq number — must not reset state
            _cap(make_data(STA, AP, AP, b"x", to_ds=True, seq=5)),  # dup
            _cap(make_data(STA, AP, AP, b"x", to_ds=True, seq=6))]
    assert _detections(det, caps) == []


def test_seqctl_tracks_transmitters_independently():
    det = SeqCtlAnomalyDetector()
    other = MacAddress("00:02:2d:00:00:08")
    caps = [_cap(make_data(STA, AP, AP, b"x", to_ds=True, seq=100)),
            _cap(make_data(other, AP, AP, b"x", to_ds=True, seq=3000)),
            _cap(make_data(STA, AP, AP, b"x", to_ds=True, seq=101)),
            _cap(make_data(other, AP, AP, b"x", to_ds=True, seq=3001))]
    assert _detections(det, caps) == []


# ----------------------------------------------------------------------
# satellite: SequenceCounter.gap + wrap-around properties (hypothesis)
# ----------------------------------------------------------------------

@given(st.integers(0, SEQ_MODULO - 1), st.integers(0, SEQ_MODULO - 1))
def test_gap_is_modular_distance(a, b):
    gap = SequenceCounter.gap(a, b)
    assert gap == (b - a) % SEQ_MODULO
    assert 0 <= gap < SEQ_MODULO
    # advancing a by the gap always lands exactly on b
    assert (a + gap) % SEQ_MODULO == b


@given(st.integers(0, SEQ_MODULO - 1), st.integers(0, SEQ_MODULO - 1))
def test_gap_of_successor_is_one(start, step_to):
    assert SequenceCounter.gap(step_to, (step_to + 1) % SEQ_MODULO) == 1
    assert SequenceCounter.gap(start, start) == 0


@given(start=st.integers(0, SEQ_MODULO - 1),
       length=st.integers(2, 300),
       losses=st.lists(st.integers(1, 4), max_size=20))
def test_healthy_transmitter_crossing_wraparound_is_never_flagged(
        start, length, losses):
    """A single radio crossing the 4096 modulus must not look spoofed.

    The counter is modular, so the stream ... 4094, 4095, 0, 1 ... has
    gap 1 throughout; light frame loss (the monitor missing a handful)
    only produces small gaps.  Neither the streaming detector nor the
    offline monitor may count any of it as anomalous.
    """
    seqs = []
    seq = start
    loss_iter = iter(losses)
    for i in range(length):
        seqs.append(seq)
        step = next(loss_iter, 1) if i % 7 == 3 else 1
        seq = (seq + step) % SEQ_MODULO

    caps = [_cap(make_data(STA, AP, AP, b"x", to_ds=True, seq=s), t=i * 0.01)
            for i, s in enumerate(seqs)]

    streaming = SeqCtlAnomalyDetector()
    assert _detections(streaming, caps) == []

    capture = FrameCapture()
    for cap in caps:
        capture.add(cap)
    verdict = SeqCtlMonitor(capture).analyze_transmitter(STA)
    assert verdict.anomalies == 0
    assert not verdict.spoofed


@given(start=st.integers(0, SEQ_MODULO - 1))
def test_interleaved_counters_flagged_even_across_wraparound(start):
    """Two radios under one address stay detectable wherever they sit."""
    a, b = start, (start + 2048) % SEQ_MODULO
    seqs = []
    for i in range(40):
        seqs.append(a)
        a = (a + 1) % SEQ_MODULO
        seqs.append(b)
        b = (b + 1) % SEQ_MODULO
    caps = [_cap(make_data(AP, STA, AP, b"x", from_ds=True, seq=s), t=i * 0.01)
            for i, s in enumerate(seqs)]
    streaming = SeqCtlAnomalyDetector()
    assert len(_detections(streaming, caps)) > 10


# ----------------------------------------------------------------------
# fingerprint
# ----------------------------------------------------------------------

def test_fingerprint_consistent_advertisement_is_silent():
    det = BeaconFingerprintDetector()
    caps = [_cap(make_beacon(AP, "CORP", 1, privacy=True, seq=i), t=i * 0.1)
            for i in range(10)]
    assert _detections(det, caps) == []


def test_fingerprint_conflicting_channel_ie_detected():
    det = BeaconFingerprintDetector()
    caps = [_cap(make_beacon(AP, "CORP", 1, privacy=True), ch=1),
            _cap(make_beacon(AP, "CORP", 6, privacy=True), ch=6)]  # clone
    found = _detections(det, caps)
    assert len(found) == 1
    assert found[0].subject == f"CORP/{AP}"
    assert "conflicting advertisement" in found[0].reason


def test_fingerprint_conflicting_capability_detected():
    det = BeaconFingerprintDetector()
    caps = [_cap(make_beacon(AP, "CORP", 1, privacy=True)),
            _cap(make_beacon(AP, "CORP", 1, privacy=False))]  # WEP bit off
    assert len(_detections(det, caps)) == 1


def test_fingerprint_distinct_bssids_do_not_conflict():
    det = BeaconFingerprintDetector()
    ap2 = MacAddress("aa:bb:cc:dd:00:02")
    caps = [_cap(make_beacon(AP, "CORP", 1)),
            _cap(make_beacon(ap2, "CORP", 6))]  # a second, honest AP
    assert _detections(det, caps) == []


def test_fingerprint_counts_probe_responses():
    det = BeaconFingerprintDetector()
    caps = [_cap(make_beacon(AP, "CORP", 1)),
            _cap(make_probe_response(AP, STA, "CORP", 6))]
    assert len(_detections(det, caps)) == 1


def test_fingerprint_ignores_data_frames():
    det = BeaconFingerprintDetector()
    caps = [_cap(make_data(STA, AP, AP, b"x", to_ds=True))]
    assert _detections(det, caps) == []


# ----------------------------------------------------------------------
# multichannel
# ----------------------------------------------------------------------

def test_multichannel_same_air_channel_is_silent():
    det = MultiChannelSsidDetector()
    caps = [_cap(make_beacon(AP, "CORP", 1), ch=1, t=0.1),
            _cap(make_beacon(AP, "CORP", 1), ch=1, t=0.2)]
    assert _detections(det, caps) == []


def test_multichannel_two_air_channels_detected():
    det = MultiChannelSsidDetector()
    caps = [_cap(make_beacon(AP, "CORP", 1), ch=1),
            _cap(make_beacon(AP, "CORP", 1), ch=6)]  # forged IE, real air ch
    found = _detections(det, caps)
    assert len(found) == 1
    assert found[0].subject == str(AP)
    assert "two radios" in found[0].reason


def test_multichannel_ignores_client_frames():
    # Scanning clients transmit on every channel legitimately.
    det = MultiChannelSsidDetector()
    caps = [_cap(make_data(STA, AP, AP, b"x", to_ds=True), ch=1),
            _cap(make_data(STA, AP, AP, b"x", to_ds=True), ch=6)]
    assert _detections(det, caps) == []


# ----------------------------------------------------------------------
# beacon-jitter
# ----------------------------------------------------------------------

_TBTT = 100 * 1024e-6  # 100 TU in seconds


def test_jitter_crystal_cadence_is_silent():
    det = BeaconJitterDetector()
    caps = [_cap(make_beacon(AP, "CORP", 1), t=i * _TBTT) for i in range(50)]
    assert _detections(det, caps) == []


def test_jitter_skipped_beacons_still_silent():
    # A missed beacon is an integer multiple of the interval, not jitter.
    det = BeaconJitterDetector()
    times = [0.0, _TBTT, 4 * _TBTT, 5 * _TBTT]
    caps = [_cap(make_beacon(AP, "CORP", 1), t=t) for t in times]
    assert _detections(det, caps) == []


def test_jitter_sloppy_scheduler_detected():
    det = BeaconJitterDetector()
    caps = [_cap(make_beacon(AP, "CORP", 1), t=0.0),
            _cap(make_beacon(AP, "CORP", 1), t=_TBTT + 0.030)]  # 30 ms late
    found = _detections(det, caps)
    assert len(found) == 1
    assert "cadence" in found[0].reason


def test_jitter_tracks_channels_separately():
    # The same (cloned) BSSID on two channels is two beacon schedulers;
    # each is judged against its own cadence (multichannel handles the
    # cloning itself).
    det = BeaconJitterDetector()
    caps = [_cap(make_beacon(AP, "CORP", 1), t=0.0, ch=1),
            _cap(make_beacon(AP, "CORP", 6), t=0.05, ch=6),
            _cap(make_beacon(AP, "CORP", 1), t=_TBTT, ch=1),
            _cap(make_beacon(AP, "CORP", 6), t=0.05 + _TBTT, ch=6)]
    assert _detections(det, caps) == []


# ----------------------------------------------------------------------
# deauth-flood
# ----------------------------------------------------------------------

def test_deauth_occasional_deauth_is_silent():
    det = DeauthFloodDetector()
    caps = [_cap(make_deauth(AP, STA, AP), t=t) for t in (0.0, 60.0, 120.0)]
    assert _detections(det, caps) == []


def test_deauth_flood_detected_past_count():
    det = DeauthFloodDetector()  # flood_count=8 in window_s=5.0
    caps = [_cap(make_deauth(AP, BROADCAST, AP), t=i * 0.1)
            for i in range(12)]
    found = _detections(det, caps)
    assert len(found) == 12 - 8  # every frame past the 8th is evidence
    assert all(f.subject == str(AP) for f in found)


def test_deauth_window_prunes_old_frames():
    det = DeauthFloodDetector()  # flood_count=8 in window_s=5.0
    # 8 deauths, then a long quiet gap, then 8 more: never >8 in-window.
    caps = [_cap(make_deauth(AP, STA, AP), t=i * 0.1) for i in range(8)]
    caps += [_cap(make_deauth(AP, STA, AP), t=100.0 + i * 0.1)
             for i in range(8)]
    assert _detections(det, caps) == []
