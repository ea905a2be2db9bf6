"""MD5 and SHA-1: the reference oracles against hashlib and the RFC vectors."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.crypto.oracles import MD5, SHA1, md5, sha1

RFC1321_VECTORS = [
    (b"", "d41d8cd98f00b204e9800998ecf8427e"),
    (b"a", "0cc175b9c0f1b6a831c399e269772661"),
    (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
    (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
    (b"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
]

FIPS180_VECTORS = [
    (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "84983e441c3bd26ebaae4aa1f95129e5e54670f1"),
]

#: Lengths around the 64-byte block and the 56-byte padding cut-off.
BOUNDARIES = [0, 1, 55, 56, 57, 63, 64, 65, 119, 128, 1000]


@pytest.mark.parametrize("data,expected", RFC1321_VECTORS)
def test_md5_rfc1321_vectors(data, expected):
    assert MD5(data).hexdigest() == expected
    assert hashlib.md5(data).hexdigest() == expected


def test_sha1_fips_vectors():
    for data, expected in FIPS180_VECTORS:
        assert SHA1(data).hexdigest() == expected
        assert hashlib.sha1(data).hexdigest() == expected


@pytest.mark.parametrize("n", BOUNDARIES)
def test_md5_padding_boundaries(n):
    data = b"a" * n
    assert MD5(data).hexdigest() == hashlib.md5(data).hexdigest()


@pytest.mark.parametrize("n", BOUNDARIES)
def test_sha1_padding_boundaries(n):
    data = b"b" * n
    assert SHA1(data).hexdigest() == hashlib.sha1(data).hexdigest()


@given(st.binary(max_size=4096))
def test_md5_matches_hashlib(data):
    assert md5(data) == hashlib.md5(data).digest()


@given(st.binary(max_size=4096))
def test_sha1_matches_hashlib(data):
    assert sha1(data) == hashlib.sha1(data).digest()


@given(st.lists(st.binary(max_size=100), max_size=10))
def test_incremental_update_equals_one_shot(chunks):
    joined = b"".join(chunks)
    m, s = MD5(), SHA1()
    hm, hs = hashlib.md5(), hashlib.sha1()
    for chunk in chunks:
        m.update(chunk)
        s.update(chunk)
        hm.update(chunk)
        hs.update(chunk)
    assert m.digest() == md5(joined) == hm.digest()
    assert s.digest() == sha1(joined) == hs.digest()


@given(st.sampled_from([55, 56, 63, 64, 65]), st.data())
def test_incremental_update_across_padding_boundaries(n, data):
    """A stream of boundary length, split anywhere, digests as hashlib's."""
    blob = data.draw(st.binary(min_size=n, max_size=n))
    cut = data.draw(st.integers(0, n))
    for oracle, std in ((MD5(), hashlib.md5()), (SHA1(), hashlib.sha1())):
        for part in (blob[:cut], blob[cut:]):
            oracle.update(part)
            std.update(part)
        assert oracle.digest() == std.digest()


def test_digest_is_idempotent_mid_stream():
    m = MD5(b"hello")
    first = m.digest()
    assert m.digest() == first == hashlib.md5(b"hello").digest()
    m.update(b" world")
    assert m.digest() == hashlib.md5(b"hello world").digest()


def test_copy_is_independent():
    a = SHA1(b"base")
    b = a.copy()
    b.update(b"more")
    assert a.digest() == hashlib.sha1(b"base").digest()
    assert b.digest() == hashlib.sha1(b"basemore").digest()
