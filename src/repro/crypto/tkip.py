"""TKIP-style per-packet keying and the Michael MIC.

Paper §2.2: "802.1x and TKIP ... have been packaged into ... WPA.
TKIP still relies on a pre shared key, thus is still vulnerable to
MITM attack from valid network clients."  To reproduce that claim we
need a WPA-PSK mode whose *security-relevant* properties hold: per-
packet keys derived from a shared secret plus a sequence counter
(so FMS-style IV attacks fail), a real forgery-detecting MIC
(Michael, implemented faithfully below), and — crucially — a key that
every authorized client shares, so a rogue AP run by a valid client
decrypts and re-encrypts traffic perfectly.

Substitution note (recorded in DESIGN.md): real TKIP's two-phase key
mixing uses a large S-box; we substitute
``SHA1(TK || TA || TSC)[:16]`` as the per-packet RC4 key.  The
substitution preserves what the paper's argument depends on — distinct
per-packet keys, no weak-IV structure, shared-secret derivation — and
none of the experiments depend on S-box internals.  The Michael MIC,
whose weakness budget *is* protocol-relevant, is implemented exactly
per IEEE 802.11i.
"""

from __future__ import annotations

import hashlib
import struct

from repro.crypto.rc4 import RC4
from repro.sim.errors import IntegrityError

__all__ = ["MichaelMic", "TkipSession", "TkipError"]

_MASK = 0xFFFFFFFF


class TkipError(IntegrityError):
    """TKIP decapsulation failed (MIC failure or replay)."""


def _rotl(x: int, n: int) -> int:
    return ((x << n) | (x >> (32 - n))) & _MASK


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK


def _xswap(x: int) -> int:
    """Swap the bytes within each 16-bit half (Michael's XSWAP)."""
    return (((x & 0xFF00FF00) >> 8) | ((x & 0x00FF00FF) << 8)) & _MASK


class MichaelMic:
    """The Michael message integrity code, exactly per IEEE 802.11i.

    Michael is deliberately weak (≈ 20-bit security) because it had to
    run on WEP-era hardware; TKIP compensates with countermeasures.
    Weak or not, it stops the *blind* bit-flipping that defeats WEP's
    CRC-32 ICV.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) != 8:
            raise ValueError("Michael key is 8 bytes")
        self.k0, self.k1 = struct.unpack("<2I", key)

    @staticmethod
    def _block(l: int, r: int) -> tuple[int, int]:
        r ^= _rotl(l, 17)
        l = (l + r) & _MASK
        r ^= _xswap(l)
        l = (l + r) & _MASK
        r ^= _rotl(l, 3)
        l = (l + r) & _MASK
        r ^= _rotr(l, 2)
        l = (l + r) & _MASK
        return l, r

    def compute(self, message: bytes) -> bytes:
        """8-byte MIC over ``message`` (already including the MIC header)."""
        # Pad: 0x5a then 4..7 zero bytes, to a multiple of 4 (IEEE 802.11i).
        zeros = (4 - (len(message) + 1) % 4) % 4 + 4
        data = message + b"\x5a" + b"\x00" * zeros
        if len(data) % 4:  # pragma: no cover - padding invariant
            raise AssertionError("Michael padding failed")
        l, r = self.k0, self.k1
        for off in range(0, len(data), 4):
            (word,) = struct.unpack_from("<I", data, off)
            l ^= word
            l, r = self._block(l, r)
        return struct.pack("<2I", l, r)


class TkipSession:
    """Per-link TKIP state: per-packet keys, Michael MIC, replay window.

    Parameters
    ----------
    temporal_key:
        16-byte temporal key (derived from the PSK in
        :mod:`repro.crypto.wpa_kdf`).
    mic_key:
        8-byte Michael key.
    transmitter:
        Transmitter address bytes mixed into the per-packet key.
    """

    def __init__(self, temporal_key: bytes, mic_key: bytes, transmitter: bytes) -> None:
        if len(temporal_key) != 16:
            raise ValueError("TKIP temporal key is 16 bytes")
        self.temporal_key = temporal_key
        self.michael = MichaelMic(mic_key)
        self.transmitter = bytes(transmitter)
        self.tsc = 0           # transmit sequence counter
        self.replay_floor = -1  # highest TSC accepted so far

    def _packet_key(self, tsc: int) -> bytes:
        material = self.temporal_key + self.transmitter + struct.pack("<Q", tsc)
        return hashlib.sha1(material).digest()[:16]

    def encapsulate(self, plaintext: bytes) -> bytes:
        """Protect ``plaintext``: returns ``TSC(6) | RC4(plaintext | MIC)``."""
        self.tsc += 1
        tsc_bytes = struct.pack("<Q", self.tsc)[:6]
        mic = self.michael.compute(plaintext)
        body = RC4(self._packet_key(self.tsc)).crypt(plaintext + mic)
        return tsc_bytes + body

    def decapsulate(self, body: bytes) -> bytes:
        """Verify and strip TKIP protection; raises :class:`TkipError`."""
        if len(body) < 6 + 8:
            raise TkipError("TKIP body too short")
        tsc = int.from_bytes(body[:6] + b"\x00\x00", "little")
        if tsc <= self.replay_floor:
            raise TkipError(f"TKIP replay: TSC {tsc} <= {self.replay_floor}")
        decrypted = RC4(self._packet_key(tsc)).crypt(body[6:])
        plaintext, mic = decrypted[:-8], decrypted[-8:]
        if self.michael.compute(plaintext) != mic:
            raise TkipError("Michael MIC failure")
        self.replay_floor = tsc
        return plaintext
