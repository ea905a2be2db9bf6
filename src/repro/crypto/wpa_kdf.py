"""WPA-PSK key derivation for the over-the-air 4-way handshake.

Real WPA uses PBKDF2-SHA1 (4096 rounds) for the PSK and the 802.11i
PRF for the PTK; these labelled-SHA1 constructions preserve the
properties the experiments rely on — determinism, SSID binding, and
PTK dependence on both nonces and both MACs — while the iteration
count (a dictionary-attack cost knob) is out of scope.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.dot11.mac import MacAddress

__all__ = ["derive_ptk", "psk_from_passphrase"]


def psk_from_passphrase(passphrase: str, ssid: str) -> bytes:
    """Map passphrase+SSID to a 32-byte PSK."""
    out = b""
    counter = 0
    while len(out) < 32:
        out += hashlib.sha1(passphrase.encode() + b"\x00" + ssid.encode()
                            + bytes([counter])).digest()
        counter += 1
    return out[:32]


def derive_ptk(psk: bytes, anonce: bytes, snonce: bytes,
               ap_mac: MacAddress, sta_mac: MacAddress) -> bytes:
    """Pairwise transient key: 48 bytes (KCK 16 | TK 16 | MIC keys 8+8)."""
    macs = b"".join(sorted((ap_mac.bytes, sta_mac.bytes)))
    nonces = b"".join(sorted((anonce, snonce)))
    out = b""
    counter = 0
    while len(out) < 48:
        out += hmac.digest(psk, b"Pairwise key expansion" + macs + nonces
                           + bytes([counter]), "sha1")
        counter += 1
    return out[:48]
