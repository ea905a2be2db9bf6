"""Information elements and the monitor-mode capture container."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dot11.capture import CapturedFrame, FrameCapture
from repro.dot11.frames import FrameSubtype, make_beacon, make_data
from repro.dot11.ies import (
    IeId,
    InformationElement,
    challenge_ie,
    ds_param_ie,
    find_ie,
    pack_ies,
    parse_ies,
    rates_ie,
    ssid_ie,
)
from repro.dot11.mac import MacAddress
from repro.sim.errors import ProtocolError

AP1 = MacAddress("aa:bb:cc:dd:00:01")
AP2 = MacAddress("aa:bb:cc:dd:00:02")
STA = MacAddress("00:02:2d:00:00:07")


def test_ie_pack_parse_roundtrip():
    ies = [ssid_ie("CORP"), rates_ie(), ds_param_ie(6)]
    parsed = parse_ies(pack_ies(ies))
    assert parsed == ies


def test_find_ie():
    ies = [ssid_ie("NET"), ds_param_ie(3)]
    assert find_ie(ies, IeId.SSID).data == b"NET"
    assert find_ie(ies, IeId.CHALLENGE_TEXT) is None


def test_ssid_length_limit():
    with pytest.raises(ProtocolError):
        ssid_ie("x" * 33)
    assert ssid_ie("x" * 32).data == b"x" * 32


def test_ds_param_validation():
    with pytest.raises(ProtocolError):
        ds_param_ie(0)
    with pytest.raises(ProtocolError):
        ds_param_ie(15)


def test_challenge_ie():
    assert challenge_ie(b"C" * 128).element_id == IeId.CHALLENGE_TEXT


def test_truncated_ies_rejected():
    good = pack_ies([ssid_ie("NET")])
    with pytest.raises(ProtocolError):
        parse_ies(good[:-1])
    with pytest.raises(ProtocolError):
        parse_ies(b"\x00")


def test_ie_data_length_limit():
    with pytest.raises(ProtocolError):
        InformationElement(0, b"x" * 256)


@given(st.lists(
    st.tuples(st.integers(0, 255), st.binary(max_size=40)), max_size=8))
def test_ies_roundtrip_property(pairs):
    ies = [InformationElement(eid, data) for eid, data in pairs]
    assert parse_ies(pack_ies(ies)) == ies


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------

def _cap(frame, t=0.0, ch=1, rssi=-50.0):
    return CapturedFrame(time=t, channel=ch, rssi_dbm=rssi, frame=frame)


def test_capture_filters():
    cap = FrameCapture()
    cap.add(_cap(make_beacon(AP1, "CORP", 1), t=1.0, ch=1))
    cap.add(_cap(make_beacon(AP2, "CORP", 6), t=2.0, ch=6))
    cap.add(_cap(make_data(STA, AP1, AP1, b"x", to_ds=True), t=3.0))
    assert cap.count(subtype=FrameSubtype.BEACON) == 2
    assert cap.count(subtype=FrameSubtype.BEACON, bssid=AP1) == 1
    assert cap.count(transmitter=STA) == 1
    assert cap.count(since=2.5) == 1
    assert len(cap) == 3


def test_capture_transmitters():
    cap = FrameCapture()
    cap.add(_cap(make_beacon(AP1, "CORP", 1)))
    cap.add(_cap(make_data(STA, AP1, AP1, b"x", to_ds=True)))
    assert cap.transmitters() == {AP1, STA}


def test_capture_tap():
    cap = FrameCapture()
    seen = []
    remove = cap.tap(seen.append)
    cap.add(_cap(make_beacon(AP1, "X", 1)))
    assert len(seen) == 1
    remove()
    cap.add(_cap(make_beacon(AP1, "X", 1)))
    assert len(seen) == 1


def test_capture_capacity():
    cap = FrameCapture(capacity=10)
    for i in range(30):
        cap.add(_cap(make_beacon(AP1, "X", 1), t=float(i)))
    assert len(cap) <= 10
    assert cap.frames[-1].time == 29.0


@pytest.mark.parametrize("capacity", [1, 2, 3, 10, 100])
def test_capture_capacity_invariant_holds_after_every_add(capacity):
    """Regression: capacity=1 used to evict nothing (the batched drop
    was ``capacity // 2 = 0`` frames), so a "keep only the newest
    frame" capture grew without bound."""
    cap = FrameCapture(capacity=capacity)
    for i in range(5 * capacity + 7):
        cap.add(_cap(make_beacon(AP1, "X", 1), t=float(i)))
        assert len(cap) <= capacity
    # the newest frame always survives eviction
    assert cap.frames[-1].time == float(5 * capacity + 6)


def test_capture_unbounded_by_default():
    cap = FrameCapture()
    for i in range(300):
        cap.add(_cap(make_beacon(AP1, "X", 1), t=float(i)))
    assert len(cap) == 300
