"""The alert correlator: one alert per (detector, subject), updated in
place, with a bounded evidence map that never evicts an open alert.
"""

from repro.wids.correlate import AlertCorrelator
from repro.wids.detectors import Detection


def test_trace_ids_update_path_does_not_recopy():
    """Evidence after an alert opens must not rebuild the
    trace_ids list — the alert shares it, and new ids keep arriving."""
    c = AlertCorrelator()
    det = Detection(subject="ap:evil", score=3.0, reason="spoof")
    alert = c.ingest("fingerprint", 5.0, det, t=0.0, trace_id=1)
    assert alert is None
    alert = c.ingest("fingerprint", 5.0, det, t=0.1, trace_id=2)
    assert alert is not None
    shared = alert.trace_ids
    for i in range(3, 8):
        assert c.ingest("fingerprint", 5.0, det, t=i * 0.1,
                        trace_id=i) is None
    # same list object throughout (O(1) update), ids accumulated in order
    assert alert.trace_ids is shared
    assert alert.trace_ids == [1, 2, 3, 4, 5, 6, 7]
    assert alert.count == 7 and alert.score == 21.0


def test_max_evidence_bounds_map_and_counts_evictions():
    c = AlertCorrelator(max_evidence=8)
    for i in range(50):
        c.ingest("fingerprint", 1e9,
                 Detection(subject=f"churn:{i:03d}", score=1.0, reason="x"),
                 t=i * 0.01)
        assert c.evidence_size <= 8
    assert c.evicted == 42
    assert c.alerts == []


def test_eviction_never_drops_open_alerts():
    c = AlertCorrelator(max_evidence=4)
    hot = Detection(subject="ap:evil", score=10.0, reason="flood")
    alert = c.ingest("deauth-flood", 5.0, hot, t=0.0)
    assert alert is not None
    for i in range(20):
        c.ingest("deauth-flood", 5.0,
                 Detection(subject=f"churn:{i:03d}", score=0.1, reason="x"),
                 t=1.0 + i)
    # the alerted pair survived every eviction round and still updates
    assert c.open_alert("deauth-flood", "ap:evil") is alert
    c.ingest("deauth-flood", 5.0, hot, t=99.0)
    assert alert.count == 2 and alert.last_evidence_t == 99.0
    assert c.evidence_size <= 4


def test_constructor_validation():
    import pytest
    with pytest.raises(ValueError):
        AlertCorrelator(max_evidence=0)
