"""RC4 against published test vectors, structural properties, and the
from-scratch key schedule and generator in ``tests/crypto/oracles.py``,
plus ``ksa_partial``, the first KSA rounds as FMS reasons about them."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.rc4 import RC4, rc4_keystream
from tests.crypto.oracles import ksa, prga


def ksa_partial(key: bytes, rounds: int) -> tuple[list[int], int]:
    """The first ``rounds`` KSA swaps, as FMS reasons about them.

    Returns the partial permutation and the running ``j`` value.
    """
    s = list(range(256))
    j = 0
    klen = len(key)
    for i in range(rounds):
        j = (j + s[i] + key[i % klen]) & 0xFF
        s[i], s[j] = s[j], s[i]
    return s, j


# Classic vectors (Wikipedia / original cypherpunks posting).
VECTORS = [
    (b"Key", b"Plaintext", "bbf316e8d940af0ad3"),
    (b"Wiki", b"pedia", "1021bf0420"),
    (b"Secret", b"Attack at dawn", "45a01f645fc35b383552544b9bf5"),
]


@pytest.mark.parametrize("key,plaintext,expected_hex", VECTORS)
def test_published_vectors(key, plaintext, expected_hex):
    assert RC4(key).crypt(plaintext).hex() == expected_hex


@pytest.mark.parametrize("key,plaintext,_", VECTORS)
def test_decrypt_is_encrypt(key, plaintext, _):
    ct = RC4(key).crypt(plaintext)
    assert RC4(key).crypt(ct) == plaintext


def test_ksa_is_a_permutation():
    s = ksa(b"anything")
    assert sorted(s) == list(range(256))


def test_ksa_partial_prefix_agrees_with_full():
    key = b"0123456789"
    full = ksa(key)
    # After all 256 rounds the partial equals the full schedule.
    partial, _ = ksa_partial(key, 256)
    assert partial == full


def test_ksa_rejects_empty_key():
    with pytest.raises(ValueError):
        ksa(b"")
    with pytest.raises(ValueError):
        RC4(b"")


def test_keystream_continuity():
    """A stateful cipher's concatenated output equals one-shot output."""
    a = RC4(b"streamkey")
    chunked = a.keystream(10) + a.keystream(7) + a.keystream(3)
    assert chunked == rc4_keystream(b"streamkey", 20)


def test_crypt_interleaves_with_keystream():
    a = RC4(b"k2")
    b = RC4(b"k2")
    assert a.crypt(b"\x00" * 16) == b.keystream(16)


@given(st.binary(min_size=1, max_size=32), st.binary(max_size=256))
def test_roundtrip_property(key, data):
    assert RC4(key).crypt(RC4(key).crypt(data)) == data


@given(st.binary(min_size=1, max_size=16))
def test_keystream_not_trivially_zero(key):
    ks = rc4_keystream(key, 64)
    assert ks != b"\x00" * 64


def test_prga_generator_matches_class():
    gen = prga(ksa(b"genkey"))
    from_gen = bytes(next(gen) for _ in range(12))
    assert from_gen == rc4_keystream(b"genkey", 12)


@given(st.binary(min_size=1, max_size=300))
def test_ksa_matches_reference(key):
    """Every key length, including ones that do not divide 256."""
    assert ksa(key) == ksa_partial(key, 256)[0]


@given(st.binary(min_size=1, max_size=32),
       st.lists(st.tuples(st.booleans(), st.integers(0, 600)), max_size=8))
def test_interleaved_keystream_and_crypt_match_reference(key, calls):
    """Any sequence of keystream/crypt calls continues one PRGA stream."""
    gen = prga(ksa(key))
    cipher = RC4(key)
    for use_crypt, n in calls:
        expected = bytes(next(gen) for _ in range(n))
        if use_crypt:
            data = bytes(range(256)) * 3
            assert cipher.crypt(data[:n]) == \
                bytes(a ^ b for a, b in zip(data, expected))
        else:
            assert cipher.keystream(n) == expected
