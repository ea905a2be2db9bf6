"""MacAddress semantics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dot11.mac import BROADCAST, MacAddress
from repro.sim.rng import SimRandom


def test_parse_string_forms():
    a = MacAddress("aa:bb:cc:dd:ee:ff")
    assert a.bytes == bytes.fromhex("aabbccddeeff")
    assert MacAddress("AA-BB-CC-DD-EE-FF") == a
    assert str(a) == "aa:bb:cc:dd:ee:ff"


def test_parse_rejects_malformed():
    for bad in ("aa:bb:cc", "aa:bb:cc:dd:ee:ff:00", "xx:bb:cc:dd:ee:ff", ""):
        with pytest.raises(ValueError):
            MacAddress(bad)
    with pytest.raises(ValueError):
        MacAddress(b"\x00" * 5)
    with pytest.raises(TypeError):
        MacAddress(12345)


def test_broadcast_and_multicast_bits():
    assert BROADCAST.is_broadcast and BROADCAST.is_multicast
    assert MacAddress("01:00:5e:00:00:01").is_multicast
    assert not MacAddress("00:02:2d:00:00:01").is_multicast


def test_locally_administered_bit():
    assert MacAddress("02:00:00:00:00:01").is_locally_administered
    assert not MacAddress("00:02:2d:00:00:01").is_locally_administered


def test_equality_hash_and_bytes_comparison():
    a = MacAddress("aa:bb:cc:dd:ee:ff")
    b = MacAddress(bytes.fromhex("aabbccddeeff"))
    assert a == b and hash(a) == hash(b)
    assert a == bytes.fromhex("aabbccddeeff")
    assert a != MacAddress("aa:bb:cc:dd:ee:fe")
    assert len({a, b}) == 1


def test_ordering():
    lo = MacAddress("00:00:00:00:00:01")
    hi = MacAddress("ff:00:00:00:00:00")
    assert lo < hi
    assert sorted([hi, lo]) == [lo, hi]


def test_immutability():
    a = MacAddress("aa:bb:cc:dd:ee:ff")
    with pytest.raises(AttributeError):
        a._bytes = b"\x00" * 6


def test_random_uses_oui():
    rng = SimRandom(7)
    a = MacAddress.random(rng)
    assert a.oui == b"\x00\x02\x2d"
    b = MacAddress.random(rng, oui=b"\x00\x11\x22")
    assert b.oui == b"\x00\x11\x22"
    with pytest.raises(ValueError):
        MacAddress.random(rng, oui=b"\x00")


@given(st.binary(min_size=6, max_size=6))
def test_roundtrip_via_string(raw):
    a = MacAddress(raw)
    assert str(a) == ":".join(f"{b:02x}" for b in raw)
    assert MacAddress(str(a)) == a


def test_copy_constructor():
    a = MacAddress("aa:bb:cc:dd:ee:ff")
    assert MacAddress(a) == a
