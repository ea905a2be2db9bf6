"""The correlation engine: evidence in, deduplicated alerts out."""

from repro.dot11.capture import CapturedFrame, FrameCapture
from repro.dot11.frames import make_beacon, make_deauth
from repro.dot11.mac import BROADCAST, MacAddress
from repro.obs import collecting, installed
from repro.wids.alerts import MAX_TRACE_IDS, Alert
from repro.wids.correlate import AlertCorrelator
from repro.wids.detectors import DeauthFloodDetector, Detection
from repro.wids.engine import WidsEngine

AP = MacAddress("aa:bb:cc:dd:00:01")


def _cap(frame, t=0.0, ch=1):
    return CapturedFrame(time=t, channel=ch, rssi_dbm=-50.0, frame=frame)


# ----------------------------------------------------------------------
# correlator
# ----------------------------------------------------------------------

def test_correlator_opens_once_at_threshold():
    corr = AlertCorrelator()
    d = Detection(subject="s", score=1.0, reason="r")
    assert corr.ingest("det", 3.0, d, t=1.0) is None
    assert corr.ingest("det", 3.0, d, t=2.0) is None
    opened = corr.ingest("det", 3.0, d, t=3.0)
    assert opened is not None
    assert opened.t == 3.0                   # threshold-crossing time
    assert opened.first_evidence_t == 1.0
    assert corr.ingest("det", 3.0, d, t=4.0) is None  # updates, not dupes
    assert corr.alerts == [opened]
    assert opened.score == 4.0 and opened.count == 4
    assert opened.last_evidence_t == 4.0


def test_correlator_keys_on_detector_and_subject():
    corr = AlertCorrelator()
    corr.ingest("a", 1.0, Detection(subject="x"), t=0.0)
    corr.ingest("b", 1.0, Detection(subject="x"), t=0.1)
    corr.ingest("a", 1.0, Detection(subject="y"), t=0.2)
    assert len(corr.alerts) == 3
    assert corr.evidence_score("a", "x") == 1.0
    assert corr.evidence_score("a", "nope") == 0.0
    assert corr.open_alert("b", "x") is corr.alerts[1]
    assert corr.open_alert("b", "nope") is None


def test_correlator_keeps_freshest_reason_and_caps_trace_ids():
    corr = AlertCorrelator()
    for i in range(MAX_TRACE_IDS + 10):
        corr.ingest("det", 1.0,
                    Detection(subject="s", reason=f"reason-{i}"),
                    t=float(i), trace_id=100 + i)
    alert = corr.alerts[0]
    assert alert.reason == f"reason-{MAX_TRACE_IDS + 9}"
    assert len(alert.trace_ids) == MAX_TRACE_IDS
    assert alert.trace_ids[0] == 100  # earliest contributors kept


def test_alert_severity_buckets_and_to_dict():
    a = Alert(detector="d", subject="s", t=1.0, score=1.0, count=1,
              first_evidence_t=0.5, last_evidence_t=1.0)
    assert a.severity == "warn"
    a.score = 3.0
    assert a.severity == "high"
    a.score = 10.0
    assert a.severity == "critical"
    d = a.to_dict()
    assert d["severity"] == "critical" and d["detector"] == "d"
    a.add_trace_id(None)
    a.add_trace_id(7)
    a.add_trace_id(7)
    assert a.trace_ids == [7]


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------

def _flood_caps(n=20):
    return [_cap(make_deauth(AP, BROADCAST, AP), t=i * 0.1) for i in range(n)]


def test_engine_live_tap_equals_offline_scan():
    caps = _flood_caps()

    live_capture = FrameCapture()
    live = WidsEngine([DeauthFloodDetector()])
    detach = live.attach(live_capture)
    for cap in caps:
        live_capture.add(cap)

    offline_capture = FrameCapture()
    for cap in caps:
        offline_capture.add(cap)
    offline = WidsEngine([DeauthFloodDetector()])
    offline.scan(offline_capture)

    assert [a.to_dict() for a in live.alerts] == \
        [a.to_dict() for a in offline.alerts]
    assert live.frames_seen == offline.frames_seen == len(caps)

    # after detach the live engine hears nothing more
    detach()
    live_capture.add(_cap(make_deauth(AP, BROADCAST, AP), t=99.0))
    assert live.frames_seen == len(caps)


def test_engine_alert_accessors():
    engine = WidsEngine([DeauthFloodDetector()])
    capture = FrameCapture()
    engine.attach(capture)
    for cap in _flood_caps():
        capture.add(cap)
    assert engine.first_alert() is engine.alerts[0]
    assert engine.alerts_for("deauth-flood") == engine.alerts
    assert engine.alerts_for("seqctl") == []
    assert engine.alerts[0].detector == "deauth-flood"


def test_engine_records_ambient_metrics():
    with collecting() as col:
        engine = WidsEngine([DeauthFloodDetector()])
        capture = FrameCapture()
        engine.attach(capture)
        for cap in _flood_caps():
            capture.add(cap)
    reg = col.registry
    assert reg.value("wids.frames") == 20
    assert reg.value("wids.evidence.deauth-flood") > 0
    assert reg.value("wids.alerts") == 1
    assert reg.value("wids.alerts.deauth-flood") == 1


def test_engine_with_metrics_uninstalled_is_silent():
    with collecting() as col, installed(metrics=None):
        engine = WidsEngine([DeauthFloodDetector()])
        capture = FrameCapture()
        engine.attach(capture)
        for cap in _flood_caps():
            capture.add(cap)
    assert engine.alerts  # still detects
    assert not any(n.startswith("wids.") for n in col.registry.snapshot())


def test_engine_benign_traffic_no_alerts():
    engine = WidsEngine()  # the full default bank
    capture = FrameCapture()
    engine.attach(capture)
    tbtt = 100 * 1024e-6
    for i in range(100):
        capture.add(_cap(make_beacon(AP, "CORP", 1, seq=i % 4096),
                         t=i * tbtt))
    assert engine.alerts == []


def test_engine_max_evidence_passthrough():
    engine = WidsEngine([DeauthFloodDetector()], max_evidence=2)
    assert engine.correlator.max_evidence == 2
