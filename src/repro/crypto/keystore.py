"""Out-of-band credential store.

Paper §5.2: "arrangements for the VPN (secret exchange or certificate
issuance) must take place out of band or on a secure network and not in
a situation where the initial transaction would be vulnerable."

:class:`KeyStore` models exactly that: a per-host table of
pre-established secrets and trusted-peer fingerprints, populated by
scenario setup code *before* the client ever touches a wireless
segment.  The VPN refuses endpoints it has no pre-established secret
for, and the E-CNN / FIG3 experiments show that a rogue cannot coax a
properly configured client into tunnelling to *it* instead.

The store also models the paper's SSL-certificate skepticism (§5.2.1):
a :class:`Credential` carries a ``provenance`` field, and policy code
can refuse credentials whose provenance is merely ``"purchased-cert"``
("a guarantee of nothing more than that provider having given the
certificate authority several hundred dollars").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.sim.errors import ConfigurationError

__all__ = ["Credential", "KeyStore"]

TRUSTED_PROVENANCES = ("out-of-band", "secure-network")


@dataclass(frozen=True)
class Credential:
    """A pre-established secret shared with a named peer.

    Attributes
    ----------
    peer:
        Name of the remote endpoint (e.g. ``"vpn.corp.example"``).
    secret:
        The shared secret bytes.
    provenance:
        How the secret was established: ``"out-of-band"`` and
        ``"secure-network"`` satisfy §5.2; ``"purchased-cert"`` and
        ``"in-band"`` do not.
    """

    peer: str
    secret: bytes
    provenance: str = "out-of-band"

    @property
    def trustworthy(self) -> bool:
        return self.provenance in TRUSTED_PROVENANCES

    def fingerprint(self) -> str:
        """Short identifier safe to log (never the secret itself)."""
        return hashlib.sha1(self.secret).digest()[:6].hex()


class KeyStore:
    """Per-host table of pre-established credentials."""

    def __init__(self) -> None:
        self._creds: dict[str, Credential] = {}

    def enroll(self, peer: str, secret: bytes, provenance: str = "out-of-band") -> Credential:
        """Record a credential for ``peer`` (scenario-setup time only)."""
        if not secret:
            raise ConfigurationError("credential secret must be non-empty")
        cred = Credential(peer=peer, secret=bytes(secret), provenance=provenance)
        self._creds[peer] = cred
        return cred

    def lookup(self, peer: str) -> Optional[Credential]:
        return self._creds.get(peer)

    def require(self, peer: str, trusted_only: bool = True) -> Credential:
        """Fetch a credential or raise; optionally reject weak provenance."""
        cred = self._creds.get(peer)
        if cred is None:
            raise ConfigurationError(
                f"no pre-established credential for {peer!r} "
                "(paper §5.2: VPN arrangements must occur out of band)"
            )
        if trusted_only and not cred.trustworthy:
            raise ConfigurationError(
                f"credential for {peer!r} has untrusted provenance "
                f"{cred.provenance!r} (paper §5.2.1)"
            )
        return cred

    def peers(self) -> list[str]:
        return sorted(self._creds)

    def __contains__(self, peer: str) -> bool:
        return peer in self._creds

    def __len__(self) -> int:
        return len(self._creds)
