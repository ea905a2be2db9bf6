"""802.1X port-based access control with EAP-MD5 (§2.2).

"This mechanism made modifications to the clients, APs and added an
authentication server ... in fact, it suffers from the same
fundamental flaw that 802.11b suffers from: there is no authentication
of the network."

The model captures exactly the trust structure the paper (and its
reference [9], Mishra & Arbaugh) criticize:

* the supplicant proves itself to the network via a CHAP-style MD5
  challenge;
* nothing proves the *network* to the supplicant — EAP-Success is an
  unauthenticated message the supplicant simply believes;
* therefore a rogue authenticator that skips verification entirely
  and emits EAP-Success is indistinguishable from a real one
  (E-8021X demonstrates it).

Messages travel over an abstract uncontrolled port (callables), which
in a deployment is the association link; the experiment concerns the
trust topology, not the framing.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Callable, Optional


__all__ = ["EapAuthServer", "Dot1xAuthenticator", "Dot1xSupplicant", "EapCode"]


class EapCode(enum.IntEnum):
    REQUEST_IDENTITY = 1
    RESPONSE_IDENTITY = 2
    MD5_CHALLENGE = 3
    MD5_RESPONSE = 4
    SUCCESS = 5
    FAILURE = 6


@dataclass(frozen=True)
class EapMessage:
    code: EapCode
    ident: int = 0
    payload: bytes = b""


def chap_md5_response(ident: int, password: bytes, challenge: bytes) -> bytes:
    """RFC 1994 CHAP response: MD5(id || secret || challenge)."""
    return hashlib.md5(bytes([ident & 0xFF]) + password + challenge).digest()


class EapAuthServer:
    """The RADIUS-ish backend holding the user database."""

    def __init__(self, users: dict[str, bytes], rng) -> None:
        self.users = dict(users)
        self._rng = rng
        self._challenges: dict[int, tuple[str, bytes]] = {}
        self._next_ident = 1
        self.successes = 0
        self.failures = 0

    def begin(self, identity: str) -> Optional[EapMessage]:
        if identity not in self.users:
            self.failures += 1
            return EapMessage(EapCode.FAILURE)
        ident = self._next_ident
        self._next_ident += 1
        challenge = self._rng.bytes(16)
        self._challenges[ident] = (identity, challenge)
        return EapMessage(EapCode.MD5_CHALLENGE, ident, challenge)

    def verify(self, msg: EapMessage) -> EapMessage:
        entry = self._challenges.pop(msg.ident, None)
        if entry is None:
            self.failures += 1
            return EapMessage(EapCode.FAILURE)
        identity, challenge = entry
        expected = chap_md5_response(msg.ident, self.users[identity], challenge)
        if msg.payload == expected:
            self.successes += 1
            return EapMessage(EapCode.SUCCESS, msg.ident)
        self.failures += 1
        return EapMessage(EapCode.FAILURE, msg.ident)


class Dot1xAuthenticator:
    """The AP-side pass-through between supplicant and auth server.

    ``rogue=True`` models the attack: no server at all, everything is
    answered with EAP-Success.  The supplicant cannot tell.
    """

    def __init__(self, server: Optional[EapAuthServer], *, rogue: bool = False) -> None:
        if server is None and not rogue:
            raise ValueError("a legitimate authenticator needs an auth server")
        self.server = server
        self.rogue = rogue
        self.port_authorized_for: list[str] = []
        self.exchanges = 0

    def authenticate(self, supplicant: "Dot1xSupplicant") -> bool:
        """Run the EAP conversation; returns port-authorized."""
        self.exchanges += 1
        identity = supplicant.on_message(EapMessage(EapCode.REQUEST_IDENTITY))
        assert identity is not None and identity.code is EapCode.RESPONSE_IDENTITY
        name = identity.payload.decode("utf-8", "replace")
        if self.rogue:
            # The rogue happily "authenticates" anyone — and, bonus for
            # the attacker, it has now harvested the identity and could
            # harvest the challenge-response pair for offline attack.
            supplicant.on_message(EapMessage(EapCode.SUCCESS))
            self.port_authorized_for.append(name)
            return True
        challenge = self.server.begin(name)
        if challenge is None or challenge.code is EapCode.FAILURE:
            supplicant.on_message(EapMessage(EapCode.FAILURE))
            return False
        response = supplicant.on_message(challenge)
        if response is None:
            return False
        result = self.server.verify(response)
        supplicant.on_message(result)
        if result.code is EapCode.SUCCESS:
            self.port_authorized_for.append(name)
            return True
        return False


class Dot1xSupplicant:
    """The client side.  Note what it never checks: who it's talking to."""

    def __init__(self, identity: str, password: bytes) -> None:
        self.identity = identity
        self.password = password
        self.authenticated = False
        self.network_was_authenticated = False  # structurally impossible: stays False

    def on_message(self, msg: EapMessage) -> Optional[EapMessage]:
        if msg.code is EapCode.REQUEST_IDENTITY:
            return EapMessage(EapCode.RESPONSE_IDENTITY,
                              payload=self.identity.encode("utf-8"))
        if msg.code is EapCode.MD5_CHALLENGE:
            return EapMessage(
                EapCode.MD5_RESPONSE, msg.ident,
                chap_md5_response(msg.ident, self.password, msg.payload))
        if msg.code is EapCode.SUCCESS:
            # EAP-Success carries no authenticator; the supplicant
            # believes it from anyone (the paper's reference [9]).
            self.authenticated = True
            return None
        if msg.code is EapCode.FAILURE:
            self.authenticated = False
            return None
        return None
