"""HMAC (RFC 2104): the reference oracle against the standard library."""

import hashlib
import hmac as stdhmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.crypto.oracles import MD5, SHA1, hmac


RFC2202_SHA1 = [
    (b"\x0b" * 20, b"Hi There", "b617318655057264e28bc0b6fb378c8ef146be00"),
    (b"Jefe", b"what do ya want for nothing?",
     "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
    (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "aa4ae5e15272d00e95705637ce8a3b55ed402112"),
]


@pytest.mark.parametrize("key,msg,expected", RFC2202_SHA1)
def test_rfc2202_sha1_vectors(key, msg, expected):
    assert hmac(key, msg, SHA1).hex() == expected
    assert stdhmac.digest(key, msg, "sha1").hex() == expected


# Keys run past the 64-byte block, where RFC 2104 hashes the key first.
@given(st.binary(min_size=1, max_size=200), st.binary(max_size=500))
def test_hmac_sha1_matches_stdlib(key, msg):
    assert hmac(key, msg, SHA1) == stdhmac.digest(key, msg, "sha1")


@given(st.binary(min_size=1, max_size=200), st.binary(max_size=500))
def test_hmac_md5_matches_stdlib(key, msg):
    assert hmac(key, msg, MD5) == stdhmac.digest(key, msg, "md5")


def test_key_longer_than_block_is_hashed_first():
    long_key = b"k" * 200
    hashed_key = hashlib.sha1(long_key).digest()
    assert hmac(long_key, b"m", SHA1) == stdhmac.digest(long_key, b"m", "sha1")
    assert stdhmac.digest(long_key, b"m", "sha1") \
        == stdhmac.digest(hashed_key, b"m", "sha1")


def test_different_keys_different_macs():
    assert stdhmac.digest(b"key1", b"msg", "sha1") \
        != stdhmac.digest(b"key2", b"msg", "sha1")


def test_constant_time_equal():
    """The MAC verifiers rely on compare_digest answering False, not
    raising, when a received tag is truncated or overlong."""
    assert stdhmac.compare_digest(b"abc", b"abc")
    assert not stdhmac.compare_digest(b"abc", b"abd")
    assert not stdhmac.compare_digest(b"abc", b"abcd")
    assert stdhmac.compare_digest(b"", b"")
