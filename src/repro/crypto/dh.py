"""Finite-field Diffie–Hellman key agreement.

The SSH-like VPN transport (§5.3's PPP-over-SSH prototype) needs a key
exchange.  We use the 1536-bit MODP group from RFC 3526 with classic
DH, plus SHA-1-based key derivation with per-purpose labels (the same
scheme SSH-1/SSH-2 use in spirit).

Authentication matters more than the math: the paper's §5.2 insists
that VPN credentials be *pre-established out of band*, precisely
because an unauthenticated DH is itself MITM-able.  The VPN layer
therefore authenticates the exchange with a pre-shared secret from
:class:`repro.crypto.keystore.KeyStore`; this module provides only the
group arithmetic.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass


__all__ = ["DhGroup", "DiffieHellman", "DH_GROUP_1536", "derive_key"]


@dataclass(frozen=True)
class DhGroup:
    """A prime-order multiplicative group (p prime, g generator)."""

    p: int
    g: int
    name: str = "custom"

    def validate_public(self, y: int) -> bool:
        """Reject degenerate public values (0, 1, p-1 — small subgroups)."""
        return 1 < y < self.p - 1


# RFC 3526 group 5 (1536-bit MODP).
_P_1536 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF",
    16,
)

DH_GROUP_1536 = DhGroup(p=_P_1536, g=2, name="modp1536")

# A deliberately small group for fast unit tests (documented unsafe).
DH_GROUP_TOY = DhGroup(p=0xFFFFFFFB, g=7, name="toy32")


class DiffieHellman:
    """One party's ephemeral DH state.

    Examples
    --------
    >>> from repro.sim.rng import SimRandom
    >>> a = DiffieHellman(DH_GROUP_TOY, SimRandom(1))
    >>> b = DiffieHellman(DH_GROUP_TOY, SimRandom(2))
    >>> a.shared_secret(b.public) == b.shared_secret(a.public)
    True
    """

    def __init__(self, group: DhGroup, rng) -> None:
        self.group = group
        bits = group.p.bit_length()
        # Private exponent: uniform in [2, p-2].
        self._x = 2 + int.from_bytes(rng.bytes((bits + 7) // 8), "big") % (group.p - 4)
        self.public = pow(group.g, self._x, group.p)

    def shared_secret(self, peer_public: int) -> bytes:
        """Compute g^(xy) and return it as big-endian bytes."""
        if not self.group.validate_public(peer_public):
            raise ValueError("degenerate DH public value")
        z = pow(peer_public, self._x, self.group.p)
        nbytes = (self.group.p.bit_length() + 7) // 8
        return z.to_bytes(nbytes, "big")


def derive_key(shared: bytes, label: str, length: int, session_id: bytes = b"") -> bytes:
    """Expand a DH shared secret into a purpose-labelled key.

    Counter-mode expansion over SHA-1:
    ``K = SHA1(shared || label || session_id || 0) || SHA1(... || 1) || ...``
    """
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.sha1(shared + label.encode("utf-8") + session_id
                            + bytes([counter])).digest()
        counter += 1
    return out[:length]


def authenticate_exchange(psk: bytes, transcript: bytes) -> bytes:
    """MAC over the handshake transcript with the pre-shared secret.

    Binding the DH exchange to an out-of-band secret is what prevents a
    rogue AP from simply MITM-ing the key exchange itself (§5.2
    requirement 2).
    """
    return hmac.digest(psk, transcript, "sha1")
