"""Modern rogue-AP attacks: security downgrade and CSA herding.

Twenty years after the paper, the rogue AP of Figure 1 still works —
it just has to defeat the negotiation first.  These two attacks are
the contemporary forms:

* :class:`DowngradeRogueAP` clones the target SSID but advertises a
  *weaker* security posture (WPA2-PSK instead of WPA3-SAE, or no RSN
  at all).  A strict WPA3-only client refuses it; a transition-mode
  client — the overwhelmingly common deployment — negotiates down,
  and a sloppy one (``rsn_strict=False``) will even associate open.
* :class:`CsaLureAttack` exploits that beacons, and the channel-switch
  announcements they carry, are *still* unauthenticated even under
  WPA3: forged CSA beacons herd an associated victim onto the channel
  where the rogue twin waits.
"""

from __future__ import annotations

from typing import Optional

from repro.dot11.frames import make_beacon
from repro.dot11.mac import MacAddress
from repro.dot11.seqctl import SequenceCounter
from repro.hosts.ap_core import ApCore
from repro.obs.runtime import instruments
from repro.radio.medium import Medium, RadioPort
from repro.radio.propagation import Position
from repro.rsn.ie import CsaIe, RsnIe
from repro.sim.errors import ConfigurationError
from repro.sim.kernel import Simulator

__all__ = ["CsaLureAttack", "DowngradeRogueAP"]


class DowngradeRogueAP:
    """An evil twin that wins by *offering less* security.

    Parameters
    ----------
    mode:
        ``"wpa2"`` — advertise PSK-only RSN.  A WPA3-transition client
        negotiates PSK, runs the offline-crackable 4-way instead of
        SAE, and never gets PMF; ``psk`` is the passphrase-derived key
        (transition networks keep one PSK for both AKMs, so a cracked
        or shared passphrase hands it to the attacker).
        ``"open"`` — advertise no RSN at all; only a non-strict client
        associates, and then in cleartext.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        position: Position,
        *,
        ssid: str,
        bssid: MacAddress,
        channel: int,
        mode: str = "wpa2",
        psk: Optional[bytes] = None,
        name: str = "downgrade-rogue",
    ) -> None:
        if mode not in ("wpa2", "open"):
            raise ConfigurationError(f"unknown downgrade mode {mode!r}")
        if mode == "wpa2" and psk is None:
            raise ConfigurationError("wpa2 downgrade needs the network PSK")
        self.mode = mode
        rsn = RsnIe.wpa2() if mode == "wpa2" else None
        self.core = ApCore(
            sim, medium, name,
            bssid=bssid, ssid=ssid, channel=channel, position=position,
            wpa_psk=psk if mode == "wpa2" else None, rsn=rsn,
        )
        sim.trace.emit("attack.downgrade_ap", name, ssid=ssid,
                       bssid=str(bssid), channel=channel, mode=mode)

    @property
    def victims(self) -> list[MacAddress]:
        """Stations that took the weaker offer."""
        return list(self.core.clients)

    def shutdown(self) -> None:
        self.core.shutdown()


class CsaLureAttack:
    """Forged channel-switch announcements herding a BSS's clients.

    Injects beacons byte-cloned from the legitimate AP (same BSSID,
    SSID, capabilities) with one addition: a CSA IE ordering a switch
    to ``lure_channel``.  Clients obey the standard and retune — onto
    the channel where the attacker's twin is waiting.  Works against
    WPA3/PMF networks because beacons carry no MIC; only the new
    ``unexpected-CSA`` WIDS detector sees it.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        position: Position,
        *,
        clone_bssid: MacAddress,
        ssid: str,
        legit_channel: int,
        lure_channel: int,
        rsn: Optional[RsnIe] = None,
        rate_hz: float = 10.0,
        name: str = "csa-lure",
    ) -> None:
        self.sim = sim
        self.clone_bssid = clone_bssid
        self.ssid = ssid
        self.lure_channel = lure_channel
        self.rate_hz = rate_hz
        self.port = RadioPort(name=name, position=position,
                              channel=legit_channel,
                              tx_power_dbm=18.0)
        medium.attach(self.port)
        # An injector's counter, not the AP's — seqctl analysis applies.
        self.seqctl = SequenceCounter(
            sim.rng.substream(f"seq.{name}").randrange(0, 4096))
        ies = []
        if rsn is not None:
            ies.append(rsn.to_ie())
        # Count 1: clients retune one beacon interval after hearing it.
        ies.append(CsaIe(new_channel=lure_channel, count=1).to_ie())
        self._extra_ies = tuple(ies)
        self._legit_channel = legit_channel
        self.frames_injected = 0
        self._stop = None

    def start(self) -> None:
        if self._stop is not None:
            return
        self._stop = self.sim.every(1.0 / self.rate_hz, self._inject)
        self.sim.trace.emit("attack.csa_lure.start", self.port.name,
                            bssid=str(self.clone_bssid),
                            lure_channel=self.lure_channel)

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    def _inject(self) -> None:
        frame = make_beacon(self.clone_bssid, self.ssid, self._legit_channel,
                            privacy=True, seq=self.seqctl.next(),
                            extra_ies=self._extra_ies)
        self.port.transmit(frame)
        self.frames_injected += 1
        m = instruments().metrics
        if m is not None:
            m.incr("attack.csa_lure.injected")
