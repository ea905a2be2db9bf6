"""The libcrypto fast paths against their pure-Python oracles.

* ``repro.crypto.rc4.RC4`` runs OpenSSL's RC4.  The oracle is the
  from-scratch KSA and PRGA in ``tests/crypto/oracles.py``, over keys of
  every length from 1 to 300 bytes, interleaved ``keystream``/``crypt``
  calls, two live ciphers at once, and ``bytes``, ``bytearray`` and
  ``memoryview`` inputs.  WEP and ESP run a fresh RC4 per packet; their
  oracles are the same paths over the oracle RC4, and the ICV and MAC
  checks fail a wrong key or a tampered packet on every repeat.
* ``repro.crypto.dh.modexp`` runs OpenSSL's ``BN_mod_exp``.  The oracle
  is builtin ``pow``.

CI runs this file as a dedicated step; ``derandomize=True`` keeps the
corpus stable, so a red build reproduces locally with the same command.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.dh import DH_GROUP_1536, DH_GROUP_TOY, DiffieHellman, modexp
from repro.crypto.rc4 import RC4, rc4_keystream
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
# RC4
# ----------------------------------------------------------------------

@SETTINGS
@given(key=st.binary(min_size=1, max_size=300), n=st.integers(0, 1100))
def test_rc4_keystream_matches_the_oracle(key, n):
    assert rc4_keystream(key, n) == oracles.RC4(key).keystream(n)


@SETTINGS
@given(key=st.binary(min_size=1, max_size=300),
       calls=st.lists(st.tuples(st.booleans(), st.binary(max_size=700)),
                      max_size=8))
def test_rc4_interleaved_calls_match_the_oracle(key, calls):
    """Any sequence of keystream/crypt calls continues one stream."""
    cipher, oracle = RC4(key), oracles.RC4(key)
    for use_crypt, data in calls:
        if use_crypt:
            assert cipher.crypt(data) == oracle.crypt(data)
        else:
            assert cipher.keystream(len(data)) == oracle.keystream(len(data))


@SETTINGS
@given(k1=st.binary(min_size=1, max_size=32),
       k2=st.binary(min_size=1, max_size=32),
       sizes=st.lists(st.integers(0, 300), max_size=10))
def test_two_live_ciphers_keep_their_own_state(k1, k2, sizes):
    """A VPN link holds a transmit and a receive cipher at once."""
    ciphers = [RC4(k1), RC4(k2)]
    oracle = [oracles.RC4(k1), oracles.RC4(k2)]
    for turn, n in enumerate(sizes):
        assert ciphers[turn % 2].keystream(n) == oracle[turn % 2].keystream(n)


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_rc4_accepts_any_bytes_like_input(kind):
    key, data = b"bytes-like", bytes(range(256)) * 2
    expected = oracles.RC4(key).crypt(data)
    assert RC4(kind(key)).crypt(kind(data)) == expected
    assert RC4(kind(key)).crypt(kind(b"")) == b""
    assert RC4(kind(key)).keystream(0) == b""


def test_rc4_rejects_an_empty_key():
    for key in (b"", bytearray(), memoryview(b"")):
        with pytest.raises(ValueError):
            RC4(key)


# ----------------------------------------------------------------------
# WEP and ESP: a fresh RC4 per packet
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
    # A frame is decrypted by every keyed receiver.
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


@SETTINGS
@given(enc_key=st.binary(min_size=1, max_size=32),
       mac_key=st.binary(max_size=80),
       seq=st.integers(0, 2**32 - 1),
       inner=st.binary(max_size=1600))
def test_esp_matches_the_uncached_oracle(enc_key, mac_key, seq, inner):
    datagram = esp_seal(enc_key, mac_key, seq, inner)
    assert datagram == oracles.esp_seal(enc_key, mac_key, seq, inner)
    # Sealed once, opened by the peer.
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
        (7, RC4(b"other" + datagram[:4]).crypt(datagram[4:-12]))


# ----------------------------------------------------------------------
# DH modexp
# ----------------------------------------------------------------------

def _bases(p):
    return [0, 1, 2, p - 1, p + 1, -2]  # pow reduces any base mod p


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_modexp_edge_exponents(group):
    p = group.p
    for x in [0, 1, 2, p - 2, p - 1]:
        for base in [group.g, *_bases(p)]:
            assert modexp(base, x, p) == pow(base, x, p), (base, x)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_modexp_random_exponents(group):
    rng = random.Random(20031006)
    p = group.p
    for _ in range(25):
        x, y = rng.randrange(p), rng.randrange(p)
        for base in [group.g, y, *_bases(p)]:
            assert modexp(base, x, p) == pow(base, x, p), (base, x)


@SETTINGS
@given(base=st.integers(-2**300, 2**300), exp=st.integers(0, 2**300),
       mod=st.integers(1, 2**300))
def test_modexp_matches_pow_on_any_modulus(base, exp, mod):
    """Odd and even moduli of every bit length, not only whole bytes."""
    assert modexp(base, exp, mod) == pow(base, exp, mod)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_modexp_rejects_a_negative_exponent(group):
    with pytest.raises(ValueError):
        modexp(group.g, -1, group.p)


def test_diffie_hellman_public_is_g_to_the_private_exponent():
    group = DH_GROUP_1536
    for seed in range(3):
        dh = DiffieHellman(group, SimRandom(seed))
        peer = DiffieHellman(group, SimRandom(seed + 100))
        assert dh.public == pow(group.g, dh._x, group.p)
        assert dh.shared_secret(peer.public) == \
            pow(peer.public, dh._x, group.p).to_bytes(192, "big")
