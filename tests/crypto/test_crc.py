"""CRC-32: the table-driven oracle against zlib, and the linearity of
``zlib.crc32`` that breaks the WEP ICV."""

import zlib

from hypothesis import given
from hypothesis import strategies as st

from tests.crypto.oracles import CRC32_TABLE, crc32


@given(st.binary(max_size=2048))
def test_matches_zlib(data):
    assert crc32(data) == zlib.crc32(data)


def test_known_values():
    for crc in (crc32, zlib.crc32):
        assert crc(b"") == 0
        assert crc(b"123456789") == 0xCBF43926  # the standard check value


@given(st.binary(max_size=256), st.binary(max_size=256))
def test_incremental_computation(a, b):
    # zlib-style chaining
    assert crc32(b, crc32(a)) == zlib.crc32(b, zlib.crc32(a)) == zlib.crc32(a + b)


def test_table_shape():
    assert len(CRC32_TABLE) == 256
    assert len(set(CRC32_TABLE)) == 256  # all entries distinct


@given(st.binary(min_size=4, max_size=64), st.binary(min_size=4, max_size=64))
def test_linearity_enables_wep_bit_flipping(a, b):
    """crc(a xor b) == crc(a) xor crc(b) xor crc(0^len).

    This identity is why WEP's encrypted CRC provides no integrity:
    an attacker XORs a delta into the ciphertext and the matching
    CRC delta into the encrypted ICV, never knowing the key.
    """
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    xored = bytes(x ^ y for x, y in zip(a, b))
    assert zlib.crc32(xored) == (zlib.crc32(a) ^ zlib.crc32(b)
                                 ^ zlib.crc32(b"\x00" * n))
