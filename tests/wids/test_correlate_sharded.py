"""The alert correlator: one alert per (detector, subject), updated in
place.
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

