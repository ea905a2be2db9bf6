"""The two exact crypto fast paths against their oracles.

* WEP and ESP take each packet's keystream from ``rc4._keystream``, a
  bounded cache keyed on ``(per-packet key, length)``, and XOR it as
  one integer.  The oracles are the uncached paths in
  ``tests/crypto/oracles.py``: a fresh ``RC4(IV || root key)`` per WEP
  frame and a fresh ``RC4(key || seq)`` per ESP datagram.  The ICV and
  MAC checks stay outside the cache, so a wrong key or a tampered
  packet fails every time.
* ``DhGroup.pow_g`` computes ``g^x mod p`` with a fixed-base comb.  The
  oracle is builtin ``pow(g, x, p)``.

CI runs this file as a dedicated step; ``derandomize=True`` keeps the
corpus stable, so a red build reproduces locally with the same command.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import rc4
from repro.crypto.dh import COMB_ROWS, DH_GROUP_1536, DH_GROUP_TOY, DiffieHellman
from repro.crypto.wep import WepError, WepKey, wep_decrypt, wep_encrypt
from repro.defense.ipsec import esp_open, esp_seal
from repro.sim.rng import SimRandom
from tests.crypto import oracles

SETTINGS = settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

GROUPS = [DH_GROUP_1536, DH_GROUP_TOY]


# ----------------------------------------------------------------------
# WEP keystream cache
# ----------------------------------------------------------------------

@SETTINGS
@given(root=st.one_of(st.binary(min_size=5, max_size=5),
                      st.binary(min_size=13, max_size=13)),
       iv=st.binary(min_size=3, max_size=3),
       payload=st.binary(max_size=2304),
       key_id=st.integers(0, 3))
def test_wep_matches_the_uncached_oracle(root, iv, payload, key_id):
    key = WepKey(root)
    body = wep_encrypt(key, iv, payload, key_id)
    assert body == oracles.wep_encrypt(key, iv, payload, key_id)
    # A frame is decrypted by every keyed receiver: the repeats hit the cache.
    assert wep_decrypt(key, body) == payload
    assert wep_decrypt(key, body) == payload
    assert oracles.wep_decrypt(key, body) == payload


def test_wrong_key_raises_on_every_repeat():
    key = WepKey.from_passphrase("SECRET")
    body = wep_encrypt(key, b"\x00\x00\x07", b"attack at dawn")
    for _ in range(3):
        with pytest.raises(WepError):
            wep_decrypt(WepKey(b"WRONG"), body)
    assert wep_decrypt(key, body) == b"attack at dawn"


@pytest.mark.parametrize("offset", [4, 10, -1])
def test_flipped_byte_raises_on_every_repeat(offset):
    key = WepKey.from_passphrase("SECRET", bits=104)
    body = wep_encrypt(key, b"\x01\x02\x03", bytes(range(64)))
    tampered = bytearray(body)
    tampered[offset] ^= 0x01
    for _ in range(3):
        with pytest.raises(WepError):
            wep_decrypt(key, bytes(tampered))
        with pytest.raises(WepError):
            oracles.wep_decrypt(key, bytes(tampered))
    assert wep_decrypt(key, body) == bytes(range(64))


def test_keystream_cache_is_bounded():
    maxsize = rc4._keystream.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 4096


# ----------------------------------------------------------------------
# ESP on the same keystream cache
# ----------------------------------------------------------------------

@SETTINGS
@given(enc_key=st.binary(min_size=1, max_size=32),
       mac_key=st.binary(max_size=80),
       seq=st.integers(0, 2**32 - 1),
       inner=st.binary(max_size=1600))
def test_esp_matches_the_uncached_oracle(enc_key, mac_key, seq, inner):
    datagram = esp_seal(enc_key, mac_key, seq, inner)
    assert datagram == oracles.esp_seal(enc_key, mac_key, seq, inner)
    # Sealed once, opened by the peer: the open hits the cache.
    assert esp_open(enc_key, mac_key, datagram) == (seq, inner)
    assert esp_open(enc_key, mac_key, datagram) == (seq, inner)


def test_esp_tampered_or_wrong_key_fails_on_every_repeat():
    datagram = esp_seal(b"enc-key", b"mac-key", 7, b"inner packet")
    tampered = bytearray(datagram)
    tampered[5] ^= 0x01
    for _ in range(3):
        assert esp_open(b"enc-key", b"mac-key", bytes(tampered)) is None
        assert esp_open(b"enc-key", b"wrong", datagram) is None
    assert esp_open(b"other", b"mac-key", datagram) == \
        (7, rc4.RC4(b"other" + datagram[:4]).crypt(datagram[4:-12]))


# ----------------------------------------------------------------------
# DH fixed-base comb
# ----------------------------------------------------------------------

def _boundary_exponents(group):
    width = -(-group.p.bit_length() // COMB_ROWS)
    out = []
    for row in range(1, COMB_ROWS):
        k = row * width
        out += [(1 << k) - 1, 1 << k, (1 << k) + 1]
    return [x for x in out if x < group.p]


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_comb_edge_exponents(group):
    p = group.p
    for x in [0, 1, 2, p - 2, *_boundary_exponents(group)]:
        assert group.pow_g(x) == pow(group.g, x, p), x


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_comb_random_exponents(group):
    rng = random.Random(20031006)
    for _ in range(25):
        x = rng.randrange(group.p)
        assert group.pow_g(x) == pow(group.g, x, group.p)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_comb_rejects_exponents_outside_its_range(group):
    width = -(-group.p.bit_length() // COMB_ROWS)
    for x in (-1, 1 << (COMB_ROWS * width)):
        with pytest.raises(ValueError):
            group.pow_g(x)


def test_diffie_hellman_public_is_g_to_the_private_exponent():
    for seed in range(3):
        dh = DiffieHellman(DH_GROUP_1536, SimRandom(seed))
        assert dh.public == pow(DH_GROUP_1536.g, dh._x, DH_GROUP_1536.p)
