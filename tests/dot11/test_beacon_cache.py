"""Beacon IE caches against the uncached encode and decode.

``make_beacon`` packs only the 12-byte fixed prefix per call and takes
the IE tail from a content-keyed cache; ``parse_beacon`` unpacks the
prefix per call and reads ``(ssid, channel, rsn, csa)`` from a cache
keyed on the tail bytes.  The uncached code they replaced lives here as
the oracle: ``struct.pack`` + ``pack_ies`` for encode, ``parse_ies`` +
``find_ie`` for decode.  The detectors read exactly these bytes, so the
caches must be bit-transparent, errors included.

CI runs this file as a dedicated step; ``derandomize=True`` keeps the
corpus stable, so a red build reproduces locally with the same command.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dot11 import frames
from repro.dot11.frames import (
    CAP_ESS,
    CAP_PRIVACY,
    BeaconInfo,
    Dot11Frame,
    FrameSubtype,
    make_beacon,
    make_probe_response,
)
from repro.dot11.ies import (
    IeId,
    InformationElement,
    ds_param_ie,
    find_ie,
    pack_ies,
    parse_ies,
    rates_ie,
    ssid_ie,
)
from repro.dot11.mac import BROADCAST, MacAddress
from repro.rsn.ie import CsaIe, RsnIe
from repro.sim.errors import ProtocolError

AP = MacAddress("aa:bb:cc:dd:00:01")
STA = MacAddress("00:02:2d:11:22:33")

SETTINGS = settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# oracles: the uncached encode and decode
# ----------------------------------------------------------------------

def oracle_body(ssid, channel, *, privacy=False, interval_tu=100,
                timestamp=0, extra_ies=None) -> bytes:
    capability = CAP_ESS | (CAP_PRIVACY if privacy else 0)
    ies = [ssid_ie(ssid), rates_ie(), ds_param_ie(channel)]
    if extra_ies:
        ies.extend(extra_ies)
    return struct.pack("<QHH", timestamp, interval_tu, capability) + pack_ies(ies)


def oracle_parse(frame: Dot11Frame) -> BeaconInfo:
    if frame.subtype not in (FrameSubtype.BEACON, FrameSubtype.PROBE_RESP):
        raise ProtocolError("not a beacon/probe-response frame")
    if len(frame.body) < 12:
        raise ProtocolError("beacon body too short")
    timestamp, interval, capability = struct.unpack("<QHH", frame.body[:12])
    ies = parse_ies(frame.body[12:])
    ssid = find_ie(ies, IeId.SSID)
    ds = find_ie(ies, IeId.DS_PARAMETER)
    rsn = find_ie(ies, IeId.RSN)
    csa = find_ie(ies, IeId.CHANNEL_SWITCH)
    return BeaconInfo(
        timestamp=timestamp,
        interval_tu=interval,
        capability=capability,
        ssid=ssid.data.decode("utf-8", "replace") if ssid else "",
        channel=ds.data[0] if ds and ds.data else 0,
        bssid=frame.addr3,
        rsn=rsn.data if rsn else None,
        csa=csa.data if csa else None,
    )


def outcome(fn, *args, **kwargs):
    """``("ok", value)`` or ``("error", None)``; only ProtocolError counts."""
    try:
        return "ok", fn(*args, **kwargs)
    except ProtocolError:
        return "error", None


def beacon_frame(body: bytes, *, bssid=AP,
                 subtype=FrameSubtype.BEACON) -> Dot11Frame:
    return Dot11Frame(subtype=subtype, addr1=BROADCAST, addr2=bssid,
                      addr3=bssid, body=body)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

# A few common names so examples share cache entries, plus arbitrary
# text that may be too long for the SSID element (both sides raise).
_ssids = st.one_of(st.sampled_from(["CORP", "GUEST", "", "café"]),
                   st.text(max_size=40))
# Channels 1-14 are valid; the rest raise on both sides.
_channels = st.integers(min_value=-1, max_value=16)
_ie = st.builds(InformationElement, st.integers(0, 255),
                st.binary(max_size=40))
_standard_ies = st.sampled_from([
    RsnIe.wpa2().to_ie(), RsnIe.wpa3().to_ie(),
    CsaIe(new_channel=11, count=3).to_ie()])
_extras = st.one_of(st.none(),
                    st.lists(st.one_of(_standard_ies, _ie), max_size=4))
_fixed = st.fixed_dictionaries({
    "privacy": st.booleans(),
    "interval_tu": st.integers(0, 0xFFFF),
    "timestamp": st.integers(0, (1 << 64) - 1),
})


def _mutate(seed: bytes, edits: list, cut: int) -> bytes:
    raw = bytearray(seed)
    for pos, value in edits:
        if raw:
            raw[pos % len(raw)] = value
    return bytes(raw[:cut])


_SEED_BODIES = [
    oracle_body("CORP", 6),
    oracle_body("CORP", 6, privacy=True, extra_ies=[RsnIe.wpa2().to_ie()]),
    oracle_body("CORP", 1, extra_ies=[RsnIe.wpa3().to_ie(),
                                      CsaIe(new_channel=11, count=3).to_ie()]),
]
_bodies = st.one_of(
    st.binary(max_size=120),
    st.builds(_mutate, st.sampled_from(_SEED_BODIES),
              st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
                       max_size=4),
              st.integers(0, 200)),
)


# ----------------------------------------------------------------------
# encode
# ----------------------------------------------------------------------

@SETTINGS
@given(ssid=_ssids, channel=_channels, extra=_extras, fixed=_fixed,
       seq=st.integers(0, 4095))
def test_make_beacon_equals_oracle(ssid, channel, extra, fixed, seq):
    expected = outcome(oracle_body, ssid, channel, extra_ies=extra, **fixed)
    got = outcome(make_beacon, AP, ssid, channel, seq=seq,
                  extra_ies=extra, **fixed)
    assert got[0] == expected[0]
    if got[0] == "ok":
        assert got[1] == Dot11Frame(
            subtype=FrameSubtype.BEACON, addr1=BROADCAST, addr2=AP,
            addr3=AP, body=expected[1], seq=seq)


@SETTINGS
@given(ssid=_ssids, channel=_channels, extra=_extras, fixed=_fixed)
def test_make_probe_response_equals_oracle(ssid, channel, extra, fixed):
    fixed = dict(fixed, interval_tu=100)  # probe responses always say 100
    privacy, timestamp = fixed["privacy"], fixed["timestamp"]
    expected = outcome(oracle_body, ssid, channel, extra_ies=extra, **fixed)
    got = outcome(make_probe_response, AP, STA, ssid, channel,
                  privacy=privacy, timestamp=timestamp, extra_ies=extra)
    assert got[0] == expected[0]
    if got[0] == "ok":
        assert got[1].body == expected[1]


def test_list_tuple_and_empty_extras_encode_alike():
    ies = [RsnIe.wpa2().to_ie()]
    assert (make_beacon(AP, "CORP", 6, extra_ies=ies).body
            == make_beacon(AP, "CORP", 6, extra_ies=tuple(ies)).body
            == oracle_body("CORP", 6, extra_ies=ies))
    assert (make_beacon(AP, "CORP", 6, extra_ies=[]).body
            == make_beacon(AP, "CORP", 6).body
            == oracle_body("CORP", 6))


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------

@SETTINGS
@given(body=_bodies, probe=st.booleans())
def test_parse_beacon_equals_oracle(body, probe):
    subtype = FrameSubtype.PROBE_RESP if probe else FrameSubtype.BEACON
    expected = outcome(oracle_parse, beacon_frame(body, subtype=subtype))
    # Twice on one frame (identity memo) and once on a fresh frame
    # (content cache): all three agree with the oracle.
    frame = beacon_frame(body, subtype=subtype)
    for candidate in (frame, frame, beacon_frame(body, subtype=subtype)):
        assert outcome(candidate.parse_beacon) == expected


@SETTINGS
@given(ssid=_ssids, channel=st.integers(1, 14), extra=_extras, fixed=_fixed)
def test_encode_then_decode_equals_oracle(ssid, channel, extra, fixed):
    try:
        frame = make_beacon(AP, ssid, channel, extra_ies=extra, **fixed)
    except ProtocolError:
        return
    assert frame.parse_beacon() == oracle_parse(frame)


def test_shared_tail_keeps_each_frames_fixed_fields():
    tail = make_beacon(AP, "CORP", 6,
                       extra_ies=[RsnIe.wpa2().to_ie()]).body[12:]
    rogue = MacAddress("aa:bb:cc:dd:00:66")
    variants = [(0, 100, CAP_ESS, AP),
                (123456789, 100, CAP_ESS, AP),
                (123456789, 100, CAP_ESS | CAP_PRIVACY, AP),
                (123456789, 50, CAP_ESS, rogue)]
    before = frames._beacon_fields.cache_info()
    infos = []
    for timestamp, interval, capability, bssid in variants:
        frame = beacon_frame(
            struct.pack("<QHH", timestamp, interval, capability) + tail,
            bssid=bssid)
        info = frame.parse_beacon()
        assert info == oracle_parse(frame)
        assert (info.timestamp, info.interval_tu, info.capability,
                info.bssid) == (timestamp, interval, capability, bssid)
        infos.append(info)
    # Every frame after the first was served from the content cache.
    assert frames._beacon_fields.cache_info().hits - before.hits >= 3
    assert len({(i.ssid, i.channel, i.rsn, i.csa) for i in infos}) == 1


@pytest.mark.parametrize("tail", [
    b"\x00\x05CO",             # SSID element longer than what follows
    b"\x00\x04CORP\x03",       # DS element cut after its id
    b"\x00\x04CORP\x30\xff",   # RSN element claiming 255 bytes
])
def test_malformed_tail_raises_on_every_call(tail):
    body = struct.pack("<QHH", 0, 100, CAP_ESS) + tail
    frame = beacon_frame(body)
    for candidate in (frame, frame, beacon_frame(body), beacon_frame(body)):
        with pytest.raises(ProtocolError):
            candidate.parse_beacon()


@pytest.mark.parametrize("ssid, channel", [("CORP", 0), ("CORP", 15),
                                           ("x" * 33, 6)])
def test_invalid_arguments_raise_on_every_call(ssid, channel):
    for _ in range(3):
        with pytest.raises(ProtocolError):
            make_beacon(AP, ssid, channel)


def test_caches_stay_within_maxsize():
    for cache in (frames._beacon_ies, frames._beacon_fields):
        assert cache.cache_info().maxsize == 256
    for i in range(600):
        frame = make_beacon(AP, f"net-{i}", 1 + i % 14, timestamp=i)
        info = frame.parse_beacon()
        assert (info.ssid, info.channel) == (f"net-{i}", 1 + i % 14)
        for cache in (frames._beacon_ies, frames._beacon_fields):
            assert cache.cache_info().currsize <= cache.cache_info().maxsize
    for cache in (frames._beacon_ies, frames._beacon_fields):
        assert cache.cache_info().currsize == cache.cache_info().maxsize
