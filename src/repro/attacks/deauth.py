"""Deauthentication forcing.

§4: "If the attacker knows the target clients MAC address he could
force the clients disassociation from the legitimate AP until the
client associates with the Rogue AP."

802.11b management frames are unauthenticated, so the attacker simply
transmits deauthentication frames whose transmitter/BSSID fields are
the legitimate AP's.  The victim's standard state machine obeys every
one (see :meth:`WirelessInterface._on_deauth`), accumulates selection
penalty against the legitimate AP, and eventually picks the rogue.
"""

from __future__ import annotations

from typing import Optional

from repro.dot11.frames import ReasonCode, make_deauth
from repro.dot11.mac import BROADCAST, MacAddress
from repro.dot11.seqctl import SequenceCounter
from repro.obs.runtime import instruments
from repro.radio.medium import Medium, RadioPort
from repro.radio.propagation import Position
from repro.sim.kernel import Simulator

__all__ = ["DeauthAttacker"]


class DeauthAttacker:
    """Forged-deauth injector against one BSS.

    Parameters
    ----------
    target:
        Victim MAC for unicast deauth; ``None`` floods broadcast
        deauths (the ablation comparison in E-DEAUTH).
    rate_hz:
        Injection rate; the experiment's swept parameter.
    reason:
        The 802.11 reason code stamped into every forged frame.
        Real tools let the operator pick one (aireplay-ng's ``-a``
        deauths default to code 7); plausible codes matter because
        some clients log them and some IDSes profile them.  Must be
        in the valid range 1..65535 (0 is reserved).
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        position: Position,
        *,
        ap_bssid: MacAddress,
        channel: int,
        target: Optional[MacAddress] = None,
        rate_hz: float = 10.0,
        name: str = "deauth-attacker",
        reason: int = ReasonCode.PREV_AUTH_EXPIRED,
    ) -> None:
        self.sim = sim
        self.ap_bssid = ap_bssid
        self.target = target
        self.rate_hz = rate_hz
        reason = int(reason)
        if not 1 <= reason <= 0xFFFF:
            raise ValueError(f"802.11 reason code out of range: {reason}")
        self.reason = reason
        self.port = RadioPort(name=name, position=position, channel=channel,
                              tx_power_dbm=18.0)
        medium.attach(self.port)
        # The injector spoofs the AP's sequence space poorly — real
        # injectors pick arbitrary numbers, which is exactly what the
        # §2.3 sequence-control monitor detects.
        self.seqctl = SequenceCounter(sim.rng.substream(f"seq.{name}").randrange(0, 4096))
        self.frames_injected = 0
        self._stop = None

    def start(self) -> None:
        if self._stop is not None:
            return
        self._stop = self.sim.every(1.0 / self.rate_hz, self._inject)
        self.sim.trace.emit("deauth.start", self.port.name,
                            target=str(self.target) if self.target else "broadcast",
                            rate_hz=self.rate_hz)

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    def _inject(self) -> None:
        dest = self.target if self.target is not None else BROADCAST
        frame = make_deauth(self.ap_bssid, dest, self.ap_bssid,
                            reason=self.reason,
                            seq=self.seqctl.next())
        self.port.transmit(frame)
        self.frames_injected += 1
        m = instruments().metrics
        if m is not None:
            m.incr("attack.deauth.injected")
