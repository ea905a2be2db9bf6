"""WEP: framing, roundtrip, failure modes, and the bit-flipping flaw."""

import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.rc4 import rc4_keystream
from repro.crypto.wep import (
    IvGenerator,
    WepError,
    WepKey,
    wep_decrypt,
    wep_encrypt,
    wep_first_keystream_byte,
    wep_iv_of,
)
from repro.sim.rng import SimRandom


KEY40 = WepKey.from_passphrase("SECRET", bits=40)
KEY104 = WepKey.from_passphrase("SECRET", bits=104)


def test_passphrase_mapping():
    assert KEY40.key == b"SECRE"
    assert KEY104.key == b"SECRETSECRETS"
    assert KEY40.bits == 40 and KEY104.bits == 104


def test_invalid_key_lengths_rejected():
    with pytest.raises(ValueError):
        WepKey(b"1234")
    with pytest.raises(ValueError):
        WepKey(b"12345678901234")
    with pytest.raises(ValueError):
        WepKey.from_passphrase("x", bits=64)
    with pytest.raises(ValueError):
        WepKey.from_passphrase("", bits=40)


@given(st.binary(min_size=1, max_size=500), st.binary(min_size=3, max_size=3))
def test_roundtrip(plaintext, iv):
    body = wep_encrypt(KEY40, iv, plaintext)
    assert wep_decrypt(KEY40, body) == plaintext


def test_frame_layout():
    body = wep_encrypt(KEY40, b"\x01\x02\x03", b"payload", key_id=2)
    assert body[:3] == b"\x01\x02\x03"     # cleartext IV
    assert body[3] == 2 << 6               # KeyID byte
    assert len(body) == 3 + 1 + 7 + 4      # IV + keyid + payload + ICV
    assert wep_iv_of(body) == b"\x01\x02\x03"


def test_wrong_key_fails_icv():
    body = wep_encrypt(KEY40, b"\x00\x00\x01", b"data")
    with pytest.raises(WepError):
        wep_decrypt(WepKey(b"WRONG"), body)


def test_truncated_body_rejected():
    with pytest.raises(WepError):
        wep_decrypt(KEY40, b"\x00\x01")


def test_naive_corruption_detected():
    """Random corruption (without CRC fix-up) does fail the ICV."""
    body = bytearray(wep_encrypt(KEY40, b"\x05\x05\x05", b"hello world"))
    body[6] ^= 0xFF
    with pytest.raises(WepError):
        wep_decrypt(KEY40, bytes(body))


def test_bit_flipping_attack_defeats_icv():
    """The legendary flaw: flip plaintext bits through the ciphertext
    and repair the encrypted ICV using CRC linearity — no key needed."""
    plaintext = b"transfer $0000100 to alice"
    iv = b"\x0a\x0b\x0c"
    body = bytearray(wep_encrypt(KEY40, iv, plaintext))
    # Attacker wants to change "alice" -> "mally".
    delta = bytes(a ^ b for a, b in zip(b"alice", b"mally"))
    offset = plaintext.find(b"alice")
    full_delta = bytearray(len(plaintext))
    full_delta[offset:offset + 5] = delta
    # XOR the delta into the ciphertext (after IV+KeyID header).
    for i, d in enumerate(full_delta):
        body[4 + i] ^= d
    # Fix the encrypted ICV: crc(p^d) = crc(p) ^ crc(d) ^ crc(0).
    icv_delta = zlib.crc32(bytes(full_delta)) ^ zlib.crc32(b"\x00" * len(plaintext))
    icv_delta_bytes = icv_delta.to_bytes(4, "little")
    for i, d in enumerate(icv_delta_bytes):
        body[4 + len(plaintext) + i] ^= d
    # The AP accepts the forged frame as valid.
    recovered = wep_decrypt(KEY40, bytes(body))
    assert recovered == b"transfer $0000100 to mally"


def test_first_keystream_byte_recovery():
    """LLC/SNAP known plaintext leaks keystream byte 0."""
    iv = b"\x03\xff\x07"
    llc_payload = b"\xaa\xaa\x03\x00\x00\x00\x08\x00rest"
    body = wep_encrypt(KEY40, iv, llc_payload)
    ks0 = wep_first_keystream_byte(body)
    assert ks0 == rc4_keystream(KEY40.per_packet_key(iv), 1)[0]


def test_iv_generator_sequential_wraps():
    gen = IvGenerator("sequential", start=0xFFFFFE)
    assert gen.next_iv() == b"\xff\xff\xfe"
    assert gen.next_iv() == b"\xff\xff\xff"
    assert gen.next_iv() == b"\x00\x00\x00"


def test_iv_generator_random_needs_rng():
    with pytest.raises(ValueError):
        IvGenerator("random")
    gen = IvGenerator("random", rng=SimRandom(1))
    assert len(gen.next_iv()) == 3


def test_per_packet_key_is_iv_prefix():
    key = KEY40.per_packet_key(b"\x01\x02\x03")
    assert key == b"\x01\x02\x03" + b"SECRE"
    with pytest.raises(ValueError):
        KEY40.per_packet_key(b"\x01\x02")
