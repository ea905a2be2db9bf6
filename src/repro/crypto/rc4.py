"""RC4 stream cipher, run in OpenSSL's ``libcrypto``.

RC4 is the cipher inside WEP ("WEP utilizes the RC4 stream cipher",
paper §2.1), inside TKIP, and the stream cipher of the SSH-like VPN
transport and the ESP tunnel.  The key-scheduling algorithm (KSA)
whose weak-IV bias the FMS attack exploits is replayed round by round
by :mod:`repro.crypto.fms` itself; encryption only needs the cipher, so
it runs in :mod:`repro.crypto.libcrypto`.  The from-scratch KSA and
PRGA are the test oracle in ``tests/crypto/oracles.py``.
"""

from __future__ import annotations

from ctypes import create_string_buffer

from repro.crypto import libcrypto
from repro.obs.runtime import instruments

__all__ = ["RC4", "rc4_keystream"]

_set_key = libcrypto.RC4_set_key
_rc4 = libcrypto.RC4


class RC4:
    """Stateful RC4 cipher.

    Encryption and decryption are the same XOR operation; the object
    keeps its keystream position, so a single instance can encrypt a
    sequence of records (as the VPN transport does).  Keys are 1 to 256
    bytes; bytes past the 256th are never read by the key schedule.

    Examples
    --------
    >>> RC4(b"Key").crypt(b"Plaintext").hex()
    'bbf316e8d940af0ad3'
    """

    def __init__(self, key: bytes) -> None:
        if not key:
            raise ValueError("RC4 key must be non-empty")
        key = bytes(key)
        self._state = create_string_buffer(libcrypto.RC4_KEY_SIZE)
        _set_key(self._state, len(key), key)

    def keystream(self, n: int) -> bytes:
        """Next ``n`` keystream bytes."""
        out = create_string_buffer(n)
        _rc4(self._state, n, out, out)  # RC4 of n zero bytes, in place
        return out.raw

    def crypt(self, data: bytes) -> bytes:
        """XOR ``data`` with the next keystream bytes (encrypt == decrypt)."""
        data = bytes(data)
        out = create_string_buffer(len(data))
        prof = instruments().profiler
        if prof is None:
            _rc4(self._state, len(data), data, out)
        else:
            with prof.span("crypto.rc4"):
                _rc4(self._state, len(data), data, out)
        return out.raw


def rc4_keystream(key: bytes, n: int) -> bytes:
    """First ``n`` keystream bytes for ``key`` (one-shot helper)."""
    return RC4(key).keystream(n)
