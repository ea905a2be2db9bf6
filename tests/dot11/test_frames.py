"""802.11 frame serialization, parsing, and body decoders."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dot11.frames import (
    CAP_PRIVACY,
    AuthAlgorithm,
    Dot11Frame,
    FrameSubtype,
    FrameType,
    ReasonCode,
    StatusCode,
    make_assoc_request,
    make_assoc_response,
    make_auth,
    make_beacon,
    make_data,
    make_deauth,
    make_disassoc,
    make_probe_request,
    make_probe_response,
)
from repro.dot11.ies import IeId, InformationElement
from repro.dot11.mac import BROADCAST, MacAddress
from repro.sim.errors import ProtocolError

AP = MacAddress("aa:bb:cc:dd:00:01")
STA = MacAddress("00:02:2d:11:22:33")


def _roundtrip(frame: Dot11Frame) -> Dot11Frame:
    return Dot11Frame.from_bytes(frame.to_bytes())


def test_beacon_roundtrip_and_parse():
    beacon = make_beacon(AP, "CORP", 6, privacy=True, timestamp=12345, seq=42)
    parsed = _roundtrip(beacon)
    assert parsed.subtype is FrameSubtype.BEACON
    assert parsed.seq == 42
    info = parsed.parse_beacon()
    assert info.ssid == "CORP"
    assert info.channel == 6
    assert info.privacy is True
    assert info.timestamp == 12345
    assert info.bssid == AP
    assert parsed.addr1.is_broadcast


def test_beacon_without_privacy():
    info = _roundtrip(make_beacon(AP, "open-net", 1)).parse_beacon()
    assert info.privacy is False
    assert not info.capability & CAP_PRIVACY


def test_probe_request_response():
    req = _roundtrip(make_probe_request(STA, "CORP"))
    assert req.subtype is FrameSubtype.PROBE_REQ
    resp = _roundtrip(make_probe_response(AP, STA, "CORP", 1, privacy=True))
    assert resp.subtype is FrameSubtype.PROBE_RESP
    info = resp.parse_beacon()  # probe responses share the beacon layout
    assert info.ssid == "CORP" and info.privacy


def test_auth_frames():
    open_auth = _roundtrip(make_auth(STA, AP, AP, txn=1))
    alg, txn, status, challenge = open_auth.parse_auth()
    assert alg == AuthAlgorithm.OPEN_SYSTEM and txn == 1
    assert status == StatusCode.SUCCESS and challenge is None

    shared = _roundtrip(make_auth(AP, STA, AP, algorithm=AuthAlgorithm.SHARED_KEY,
                                  txn=2, challenge=b"C" * 128))
    alg, txn, status, challenge = shared.parse_auth()
    assert alg == AuthAlgorithm.SHARED_KEY and txn == 2
    assert challenge == b"C" * 128


def test_assoc_frames():
    req = _roundtrip(make_assoc_request(STA, AP, "CORP", privacy=True))
    capability, ssid = req.parse_assoc_request()
    assert ssid == "CORP" and capability & CAP_PRIVACY

    resp = _roundtrip(make_assoc_response(AP, STA, status=StatusCode.SUCCESS, aid=5))
    cap, status, aid = resp.parse_assoc_response()
    assert status == StatusCode.SUCCESS
    assert aid & 0x3FFF == 5


def test_deauth_disassoc_reason():
    d = _roundtrip(make_deauth(AP, STA, AP, reason=ReasonCode.PREV_AUTH_EXPIRED))
    assert d.parse_reason() == ReasonCode.PREV_AUTH_EXPIRED
    d2 = _roundtrip(make_disassoc(AP, STA, AP, reason=ReasonCode.INACTIVITY))
    assert d2.parse_reason() == ReasonCode.INACTIVITY


def test_data_frame_address_mapping_to_ds():
    dst = MacAddress("00:00:00:00:00:99")
    f = make_data(STA, dst, AP, b"payload", to_ds=True)
    assert f.addr1 == AP        # receiver: the AP
    assert f.addr2 == STA       # transmitter: the station
    assert f.addr3 == dst       # final destination
    assert f.destination == dst
    assert f.source == STA


def test_data_frame_address_mapping_from_ds():
    src = MacAddress("00:00:00:00:00:99")
    f = make_data(src, STA, AP, b"payload", from_ds=True)
    assert f.addr1 == STA       # receiver: the station
    assert f.addr2 == AP        # transmitter: the AP
    assert f.addr3 == src       # original source
    assert f.destination == STA
    assert f.source == src


def test_fcs_detects_corruption():
    raw = bytearray(make_beacon(AP, "CORP", 1).to_bytes())
    raw[10] ^= 0x40
    with pytest.raises(ProtocolError):
        Dot11Frame.from_bytes(bytes(raw))


def test_flags_roundtrip():
    f = make_data(STA, AP, AP, b"x", to_ds=True, protected=True)
    f.retry = True
    parsed = _roundtrip(f)
    assert parsed.to_ds and parsed.protected and parsed.retry
    assert not parsed.from_ds


def test_short_frame_rejected():
    with pytest.raises(ProtocolError):
        Dot11Frame.from_bytes(b"\x00" * 10)


def test_frame_type_mapping():
    assert FrameSubtype.BEACON.frame_type is FrameType.MANAGEMENT
    assert FrameSubtype.DATA.frame_type is FrameType.DATA
    assert FrameSubtype.ACK.frame_type is FrameType.CONTROL


@given(
    st.sampled_from([FrameSubtype.BEACON, FrameSubtype.DATA, FrameSubtype.AUTH,
                     FrameSubtype.DEAUTH, FrameSubtype.PROBE_REQ]),
    st.integers(min_value=0, max_value=4095),
    st.binary(max_size=200),
)
def test_serialization_roundtrip_property(subtype, seq, body):
    frame = Dot11Frame(subtype=subtype, addr1=STA, addr2=AP, addr3=AP,
                       body=body, seq=seq)
    parsed = _roundtrip(frame)
    assert parsed.subtype == subtype
    assert parsed.seq == seq
    assert parsed.body == body
    assert parsed.addr1 == STA and parsed.addr2 == AP


def test_rogue_beacon_is_byte_identical_to_legit():
    """The paper's core structural point: a rogue can clone a beacon
    exactly — nothing in the frame authenticates the network."""
    legit = make_beacon(AP, "CORP", 6, privacy=True, timestamp=777, seq=9)
    rogue = make_beacon(AP, "CORP", 6, privacy=True, timestamp=777, seq=9)
    assert legit.to_bytes() == rogue.to_bytes()


# ----------------------------------------------------------------------
# parse_beacon's one-entry memo
# ----------------------------------------------------------------------

_ADVERTS = st.tuples(
    st.booleans(),                      # probe response, else beacon
    st.text(max_size=8),                # SSID
    st.integers(1, 14),                 # channel
    st.booleans(),                      # privacy
    st.integers(0, 2**64 - 1),          # timestamp
    st.sampled_from((None, b"\x01\x00", b"\x01\x00\x80")),  # RSN body
)


def _advert(probe, ssid, channel, privacy, timestamp, rsn):
    extra = [InformationElement(IeId.RSN, rsn)] if rsn is not None else None
    if probe:
        return make_probe_response(AP, STA, ssid, channel, privacy=privacy,
                                   timestamp=timestamp, extra_ies=extra)
    return make_beacon(AP, ssid, channel, privacy=privacy,
                       timestamp=timestamp, extra_ies=extra)


@given(st.lists(_ADVERTS, min_size=1, max_size=4),
       st.lists(st.integers(0, 3), max_size=24))
def test_parse_beacon_memo_matches_fresh_decode(adverts, order):
    """Any interleaving of calls (A, B, A, A, ...) returns what a fresh
    decode of the frame's own bytes returns."""
    frames = [_advert(*a) for a in adverts]
    expected = [Dot11Frame.from_bytes(f.to_bytes()).parse_beacon()
                for f in frames]
    for i in order:
        i %= len(frames)
        assert frames[i].parse_beacon() == expected[i]


def test_parse_beacon_repeat_returns_the_same_info():
    beacon = make_beacon(AP, "CORP", 6)
    assert beacon.parse_beacon() is beacon.parse_beacon()


def test_parse_beacon_errors_are_never_cached():
    good = make_beacon(AP, "CORP", 6)
    short = Dot11Frame(subtype=FrameSubtype.BEACON, addr1=BROADCAST,
                       addr2=AP, addr3=AP, body=b"\x00" * 11)
    truncated = Dot11Frame(subtype=FrameSubtype.PROBE_RESP, addr1=STA,
                           addr2=AP, addr3=AP,
                           body=struct.pack("<QHH", 0, 100, 1) + b"\x00\x05ab")
    for bad in (short, truncated):
        for _ in range(2):
            assert good.parse_beacon().ssid == "CORP"
            with pytest.raises(ProtocolError):
                bad.parse_beacon()
            with pytest.raises(ProtocolError):
                bad.parse_beacon()


def test_parse_beacon_rejects_other_subtypes_after_a_hit():
    beacon = make_beacon(AP, "CORP", 6)
    beacon.parse_beacon()
    for frame in (make_deauth(AP, STA, AP), make_probe_request(STA, "CORP")):
        with pytest.raises(ProtocolError):
            frame.parse_beacon()
    assert beacon.parse_beacon().channel == 6


def test_parse_beacon_with_body_copy_decodes_fresh():
    beacon = make_beacon(AP, "CORP", 6)
    assert beacon.parse_beacon().ssid == "CORP"
    twin = beacon.with_body(make_beacon(AP, "EVIL", 11).body)
    info = twin.parse_beacon()
    assert (info.ssid, info.channel) == ("EVIL", 11)
    assert (beacon.parse_beacon().ssid, beacon.parse_beacon().channel) == \
        ("CORP", 6)
