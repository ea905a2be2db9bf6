"""WEP (Wired Equivalent Privacy) encapsulation, from scratch.

WEP as deployed in 802.11b: a per-packet RC4 key formed by prepending a
24-bit IV to the shared root key, and a CRC-32 integrity check value
(ICV) appended to the plaintext before encryption.  The expanded frame
body on the air is::

    IV(3 bytes) | KeyID(1 byte) | RC4( payload | ICV(4 bytes) )

The paper (§2.1) notes WEP's weaknesses "have long been legendary" and
that in the rogue-AP scenario it "provides no protection what so ever":
the rogue either *is* a valid client that was given the key, or
recovers it passively with the FMS attack (:mod:`repro.crypto.fms`).
Both paths are exercised by the E-WEP experiment.

Key-length note: the paper's example key is the ASCII string
``SECRET``.  Real 40-bit WEP keys are 5 ASCII characters and 104-bit
keys are 13; :meth:`WepKey.from_passphrase` maps an arbitrary string
onto either size by repeating/truncating, the behaviour of the
classic "ASCII key" entry mode on period hardware.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.crypto.rc4 import RC4
from repro.sim.errors import IntegrityError

__all__ = ["WepError", "WepKey", "IvGenerator", "wep_encrypt", "wep_decrypt"]

IV_LEN = 3
ICV_LEN = 4
HEADER_LEN = IV_LEN + 1  # IV + KeyID byte


class WepError(IntegrityError):
    """WEP decryption failed (ICV mismatch or malformed body)."""


@dataclass(frozen=True)
class WepKey:
    """A WEP root key (5 bytes = 40-bit or 13 bytes = 104-bit)."""

    key: bytes

    VALID_LENGTHS = (5, 13)

    def __post_init__(self) -> None:
        if len(self.key) not in self.VALID_LENGTHS:
            raise ValueError(
                f"WEP root key must be 5 or 13 bytes, got {len(self.key)}"
            )

    @classmethod
    def from_passphrase(cls, phrase: str, bits: int = 40) -> "WepKey":
        """Map an ASCII passphrase (e.g. the paper's ``SECRET``) to a key.

        Repeats/truncates the phrase to the key length, mirroring the
        ASCII-key entry mode of period consumer equipment.
        """
        length = {40: 5, 104: 13}.get(bits)
        if length is None:
            raise ValueError("bits must be 40 or 104")
        if not phrase:
            raise ValueError("passphrase must be non-empty")
        raw = phrase.encode("ascii")
        repeated = (raw * (length // len(raw) + 1))[:length]
        return cls(repeated)

    @property
    def bits(self) -> int:
        return len(self.key) * 8

    def per_packet_key(self, iv: bytes) -> bytes:
        """The RC4 key actually used on the air: IV || root key."""
        if len(iv) != IV_LEN:
            raise ValueError("WEP IV must be 3 bytes")
        return bytes(iv) + self.key

    def __repr__(self) -> str:
        return f"WepKey({self.bits}-bit)"


class IvGenerator:
    """A 24-bit IV counter, incremented per frame.

    The behaviour of many period NICs, and what made weak-IV collection
    so effective: a sequential card sweeps straight through the
    FMS-weak classes.
    """

    def __init__(self, start: int = 0) -> None:
        self._counter = start & 0xFFFFFF

    def next_iv(self) -> bytes:
        iv = self._counter
        self._counter = (self._counter + 1) & 0xFFFFFF
        return bytes(((iv >> 16) & 0xFF, (iv >> 8) & 0xFF, iv & 0xFF))


def wep_encrypt(key: WepKey, iv: bytes, plaintext: bytes, key_id: int = 0) -> bytes:
    """Encrypt a frame body: returns ``IV | KeyID | RC4(plaintext | ICV)``."""
    if not 0 <= key_id <= 3:
        raise ValueError("WEP KeyID is 2 bits")
    icv = zlib.crc32(plaintext).to_bytes(4, "little")
    return iv + bytes([key_id << 6]) + RC4(key.per_packet_key(iv)).crypt(
        plaintext + icv)


def wep_decrypt(key: WepKey, body: bytes) -> bytes:
    """Decrypt a WEP frame body and verify the ICV.

    Raises :class:`WepError` if the body is malformed or the ICV fails
    (wrong key, or tampering — though CRC-32 being linear, tampering
    *with* keystream access is trivially fixable by an attacker; see
    the bit-flipping test in ``tests/crypto/test_wep.py``).
    """
    if len(body) < HEADER_LEN + ICV_LEN:
        raise WepError("WEP body too short")
    decrypted = RC4(key.per_packet_key(body[:IV_LEN])).crypt(body[HEADER_LEN:])
    plaintext, icv = decrypted[:-ICV_LEN], decrypted[-ICV_LEN:]
    if zlib.crc32(plaintext).to_bytes(4, "little") != icv:
        raise WepError("WEP ICV check failed (wrong key or tampered frame)")
    return plaintext


def wep_iv_of(body: bytes) -> bytes:
    """Extract the cleartext IV from an encrypted body (visible to sniffers)."""
    if len(body) < IV_LEN:
        raise WepError("WEP body too short for IV")
    return body[:IV_LEN]


def wep_first_keystream_byte(body: bytes) -> int:
    """Recover keystream byte 0 from a ciphertext, given known plaintext.

    802.2 LLC/SNAP encapsulation makes the first payload byte of
    essentially every data frame ``0xAA`` — the leak the FMS attack
    feeds on.
    """
    if len(body) < HEADER_LEN + 1:
        raise WepError("WEP body too short for keystream recovery")
    return body[HEADER_LEN] ^ 0xAA
