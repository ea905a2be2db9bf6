"""Reference implementations of MD5, SHA-1, HMAC, CRC-32, RC4 and WEP.

The program hashes with ``hashlib``, ``hmac`` and ``zlib``, and runs
RC4 and modular exponentiation in OpenSSL's ``libcrypto``. These
pure-Python versions, written from RFC 1321, FIPS 180-1, RFC 2104, the
IEEE 802.3 polynomial and the RC4 key schedule and generator, are the
test oracles: the differential tests check the libraries against them,
and both against the published known answers. Builtin ``pow`` is the
modexp oracle. They are written for clarity, not speed.

``wep_encrypt``/``wep_decrypt`` are the WEP path built on them: a fresh
oracle ``RC4(IV || root key)`` per frame, XORed byte by byte.
``esp_seal`` is the ESP path, the same way: a fresh ``RC4(key || seq)``
per datagram and the RFC 2104 HMAC above.
"""

from __future__ import annotations

import struct
from itertools import islice
from typing import Callable, Iterator

from repro.crypto.wep import HEADER_LEN, ICV_LEN, IV_LEN, WepError, WepKey

__all__ = ["CRC32_TABLE", "MD5", "RC4", "SHA1", "crc32", "esp_seal", "hmac",
           "ksa", "md5", "prga", "sha1", "wep_decrypt", "wep_encrypt"]

_MASK = 0xFFFFFFFF


def _rotl(x: int, n: int) -> int:
    return ((x << n) | (x >> (32 - n))) & _MASK


class _MerkleDamgard:
    """Block buffering and length padding shared by MD5 and SHA-1."""

    digest_size = 0
    block_size = 64
    _INIT: tuple = ()
    _ENDIAN = ""

    def __init__(self, data: bytes = b"") -> None:
        self._h = list(self._INIT)
        self._buffer = b""
        self._length = 0
        self.update(data)

    def update(self, data: bytes) -> None:
        self._length += len(data)
        buf = self._buffer + bytes(data)
        for offset in range(0, len(buf) - 63, 64):
            self._compress(buf[offset:offset + 64])
        self._buffer = buf[len(buf) - len(buf) % 64:]

    def _compress(self, block: bytes) -> None:
        raise NotImplementedError

    def digest(self) -> bytes:
        # Pad a copy, so digest() may be called mid-stream.
        clone = self.copy()
        bit_len = (clone._length * 8) & 0xFFFFFFFFFFFFFFFF
        pad_len = (55 - clone._length) % 64
        clone.update(b"\x80" + b"\x00" * pad_len
                     + struct.pack(self._ENDIAN + "Q", bit_len))
        assert not clone._buffer  # the padded stream is block-aligned
        return struct.pack(f"{self._ENDIAN}{len(self._h)}I", *clone._h)

    def hexdigest(self) -> str:
        return self.digest().hex()

    def copy(self):
        clone = type(self)()
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        return clone


# MD5 per-round left-rotate amounts and K[i] = floor(2^32 * |sin(i + 1)|).
_MD5_S = (7, 12, 17, 22) * 4 + (5, 9, 14, 20) * 4 \
    + (4, 11, 16, 23) * 4 + (6, 10, 15, 21) * 4
_MD5_K = (
    0xD76AA478, 0xE8C7B756, 0x242070DB, 0xC1BDCEEE,
    0xF57C0FAF, 0x4787C62A, 0xA8304613, 0xFD469501,
    0x698098D8, 0x8B44F7AF, 0xFFFF5BB1, 0x895CD7BE,
    0x6B901122, 0xFD987193, 0xA679438E, 0x49B40821,
    0xF61E2562, 0xC040B340, 0x265E5A51, 0xE9B6C7AA,
    0xD62F105D, 0x02441453, 0xD8A1E681, 0xE7D3FBC8,
    0x21E1CDE6, 0xC33707D6, 0xF4D50D87, 0x455A14ED,
    0xA9E3E905, 0xFCEFA3F8, 0x676F02D9, 0x8D2A4C8A,
    0xFFFA3942, 0x8771F681, 0x6D9D6122, 0xFDE5380C,
    0xA4BEEA44, 0x4BDECFA9, 0xF6BB4B60, 0xBEBFBC70,
    0x289B7EC6, 0xEAA127FA, 0xD4EF3085, 0x04881D05,
    0xD9D4D039, 0xE6DB99E5, 0x1FA27CF8, 0xC4AC5665,
    0xF4292244, 0x432AFF97, 0xAB9423A7, 0xFC93A039,
    0x655B59C3, 0x8F0CCC92, 0xFFEFF47D, 0x85845DD1,
    0x6FA87E4F, 0xFE2CE6E0, 0xA3014314, 0x4E0811A1,
    0xF7537E82, 0xBD3AF235, 0x2AD7D2BB, 0xEB86D391,
)


class MD5(_MerkleDamgard):
    """MD5 (RFC 1321) with the hashlib update/digest interface."""

    digest_size = 16
    _INIT = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
    _ENDIAN = "<"

    def _compress(self, block: bytes) -> None:
        m = struct.unpack("<16I", block)
        a, b, c, d = self._h
        for i in range(64):
            if i < 16:
                f, g = (b & c) | (~b & d), i
            elif i < 32:
                f, g = (d & b) | (~d & c), (5 * i + 1) % 16
            elif i < 48:
                f, g = b ^ c ^ d, (3 * i + 5) % 16
            else:
                f, g = c ^ (b | (~d & _MASK)), (7 * i) % 16
            f = (f + a + _MD5_K[i] + m[g]) & _MASK
            a, d, c = d, c, b
            b = (b + _rotl(f, _MD5_S[i])) & _MASK
        self._h = [(x + y) & _MASK for x, y in zip(self._h, (a, b, c, d))]


class SHA1(_MerkleDamgard):
    """SHA-1 (FIPS 180-1) with the hashlib update/digest interface."""

    digest_size = 20
    _INIT = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
    _ENDIAN = ">"

    def _compress(self, block: bytes) -> None:
        w = list(struct.unpack(">16I", block))
        for t in range(16, 80):
            w.append(_rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1))
        a, b, c, d, e = self._h
        for t in range(80):
            if t < 20:
                f, k = (b & c) | (~b & d), 0x5A827999
            elif t < 40:
                f, k = b ^ c ^ d, 0x6ED9EBA1
            elif t < 60:
                f, k = (b & c) | (b & d) | (c & d), 0x8F1BBCDC
            else:
                f, k = b ^ c ^ d, 0xCA62C1D6
            temp = (_rotl(a, 5) + f + e + k + w[t]) & _MASK
            e, d, c, b, a = d, c, _rotl(b, 30), a, temp
        self._h = [(x + y) & _MASK for x, y in zip(self._h, (a, b, c, d, e))]


def md5(data: bytes) -> bytes:
    return MD5(data).digest()


def sha1(data: bytes) -> bytes:
    return SHA1(data).digest()


def hmac(key: bytes, message: bytes,
         hash_factory: Callable[[], _MerkleDamgard]) -> bytes:
    """HMAC per RFC 2104: H(K ^ opad || H(K ^ ipad || message))."""
    block_size = hash_factory().block_size
    if len(key) > block_size:
        h = hash_factory()
        h.update(key)
        key = h.digest()
    key = key.ljust(block_size, b"\x00")
    inner = hash_factory()
    inner.update(bytes(b ^ 0x36 for b in key) + message)
    outer = hash_factory()
    outer.update(bytes(b ^ 0x5C for b in key) + inner.digest())
    return outer.digest()


def _crc_entry(byte: int) -> int:
    crc = byte
    for _ in range(8):
        crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1  # reflected 0x04C11DB7
    return crc


CRC32_TABLE = tuple(_crc_entry(byte) for byte in range(256))


def crc32(data: bytes, crc: int = 0) -> int:
    """Table-driven CRC-32; ``crc`` chains calls the way ``zlib.crc32`` does."""
    crc ^= _MASK
    for b in data:
        crc = CRC32_TABLE[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ _MASK


def ksa(key: bytes) -> list[int]:
    """RC4 key-scheduling algorithm: the 256-entry permutation for ``key``.

    Round ``i`` reads key byte ``i mod len(key)``, so bytes past the
    256th never matter.
    """
    if not key:
        raise ValueError("RC4 key must be non-empty")
    s = list(range(256))
    j = 0
    for i in range(256):
        j = (j + s[i] + key[i % len(key)]) & 0xFF
        s[i], s[j] = s[j], s[i]
    return s


def prga(s: list[int]) -> Iterator[int]:
    """RC4 pseudo-random generation algorithm over a scheduled state."""
    s = list(s)
    i = j = 0
    while True:
        i = (i + 1) & 0xFF
        j = (j + s[i]) & 0xFF
        s[i], s[j] = s[j], s[i]
        yield s[(s[i] + s[j]) & 0xFF]


class RC4:
    """RC4 from :func:`ksa` and :func:`prga`, with the program's
    ``keystream``/``crypt`` interface."""

    def __init__(self, key: bytes) -> None:
        self._stream = prga(ksa(bytes(key)))

    def keystream(self, n: int) -> bytes:
        return bytes(islice(self._stream, n))

    def crypt(self, data: bytes) -> bytes:
        return bytes(b ^ k for b, k in zip(data, self._stream))


def wep_encrypt(key: WepKey, iv: bytes, plaintext: bytes, key_id: int = 0) -> bytes:
    """``IV | KeyID | RC4(IV || key)(plaintext | ICV)``."""
    icv = crc32(plaintext).to_bytes(4, "little")
    cipher = RC4(key.per_packet_key(iv))
    return iv + bytes([key_id << 6]) + cipher.crypt(plaintext + icv)


def wep_decrypt(key: WepKey, body: bytes) -> bytes:
    """Inverse of :func:`wep_encrypt`; raises ``WepError`` on a bad ICV."""
    if len(body) < HEADER_LEN + ICV_LEN:
        raise WepError("WEP body too short")
    decrypted = RC4(key.per_packet_key(body[:IV_LEN])).crypt(body[HEADER_LEN:])
    plaintext, icv = decrypted[:-ICV_LEN], decrypted[-ICV_LEN:]
    if crc32(plaintext).to_bytes(4, "little") != icv:
        raise WepError("WEP ICV check failed")
    return plaintext


def esp_seal(enc_key: bytes, mac_key: bytes, seq: int, inner: bytes) -> bytes:
    """``seq(4) | RC4(enc_key || seq)(inner) | HMAC-SHA1-96``."""
    seq_bytes = struct.pack(">I", seq)
    ciphertext = RC4(enc_key + seq_bytes).crypt(inner)
    return seq_bytes + ciphertext + hmac(mac_key, seq_bytes + ciphertext,
                                         SHA1)[:12]
