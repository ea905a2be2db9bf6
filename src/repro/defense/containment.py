"""Active rogue containment — the paper's §6 future work, built.

"Future work will likely include ... improving techniques of detecting
and countering attacks similar to the ones discussed here."

This module closes the detect→counter loop that later shipped in
commercial WIDS products: a monitor radio runs the §2.3
sequence-control analysis continuously; when a rogue BSS is confirmed,
the sensor *contains* it by injecting deauthentication frames into the
rogue's own BSS — the attacker's trick turned against him.  Clients
knocked off the rogue re-scan, accumulate selection penalty against
the rogue's (bssid, channel), and drift back to the legitimate AP.

Honest limitations, preserved faithfully:

* containment is itself unauthenticated deauth spoofing — it only
  works because 802.11b still lacks management-frame protection;
* it is an arms race: the rogue can out-shout the sensor;
* a VPN'd client (§5) never needed any of this — containment protects
  the unprotected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.sniffer import MonitorSniffer
from repro.wids.detectors import SeqCtlMonitor
from repro.dot11.frames import BROADCAST, FrameSubtype, ReasonCode, make_deauth
from repro.dot11.mac import MacAddress
from repro.dot11.seqctl import SequenceCounter
from repro.radio.medium import Medium, RadioPort
from repro.radio.propagation import Position
from repro.sim.kernel import Simulator

__all__ = ["ContainmentSensor", "ContainmentAction"]


@dataclass
class ContainmentAction:
    """One containment decision the sensor took."""

    time: float
    bssid: MacAddress
    channel: int
    reason: str


class ContainmentSensor:
    """A WIDS sensor: monitor, detect (§2.3), contain (deauth the rogue).

    Parameters
    ----------
    authorized:
        (bssid, channel) pairs of the legitimate infrastructure.  A
        detected BSS on any *other* (bssid, channel) advertising an
        authorized BSSID — the Fig. 1 clone — is contained.
    containment_rate_hz:
        Broadcast-deauth injection rate against a contained BSS.
    """

    CHECK_INTERVAL_S = 5.0  # detection sweep period

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        position: Position,
        *,
        authorized: list[tuple[MacAddress, int]],
        containment_rate_hz: float = 5.0,
        name: str = "wids-sensor",
    ) -> None:
        self.sim = sim
        self.authorized = set(authorized)
        self.containment_rate_hz = containment_rate_hz
        self.sniffer = MonitorSniffer(sim, medium, position,
                                      name=f"{name}.monitor")
        self.monitor = SeqCtlMonitor(self.sniffer.capture)
        # A separate injection radio (sensors have one of each).
        self.injector = RadioPort(name=f"{name}.injector", position=position,
                                  channel=1, tx_power_dbm=18.0)
        medium.attach(self.injector)
        self._seq = SequenceCounter(sim.rng.substream(f"seq.{name}").randrange(0, 4096))
        self.actions: list[ContainmentAction] = []
        self._contained: dict[tuple[MacAddress, int], object] = {}
        self._stop_detect = None
        self.deauths_injected = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._stop_detect is None:
            self._stop_detect = self.sim.every(self.CHECK_INTERVAL_S, self._sweep)

    def stop(self) -> None:
        if self._stop_detect is not None:
            self._stop_detect()
            self._stop_detect = None
        for stopper in self._contained.values():
            stopper()
        self._contained.clear()

    @property
    def containing(self) -> list[tuple[MacAddress, int]]:
        return sorted(self._contained, key=lambda k: (str(k[0]), k[1]))

    # ------------------------------------------------------------------
    # detect → contain
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        # Enumerate BSSes on the air: (bssid, channel) pairs heard sending beacons.
        seen: set[tuple[MacAddress, int]] = set()
        for cap in self.sniffer.capture.select(subtype=FrameSubtype.BEACON):
            seen.add((cap.frame.addr3, cap.channel))
        authorized_bssids = {b for b, _ in self.authorized}
        for key in seen:
            bssid, channel = key
            if key in self.authorized or key in self._contained:
                continue
            if bssid in authorized_bssids:
                reason = (f"authorized BSSID cloned on channel {channel} "
                          f"(Fig. 1 rogue)")
            else:
                verdict = self.monitor.analyze_transmitter(bssid)
                if not verdict.spoofed:
                    continue
                reason = verdict.reason
            self._contain(bssid, channel, reason)

    def _contain(self, bssid: MacAddress, channel: int, reason: str) -> None:
        self.actions.append(ContainmentAction(
            time=self.sim.now, bssid=bssid, channel=channel, reason=reason))
        self.sim.trace.emit("wids.contain", self.injector.name,
                            bssid=str(bssid), channel=channel, reason=reason)

        def inject() -> None:
            self.injector.channel = channel
            frame = make_deauth(bssid, BROADCAST, bssid,
                                reason=ReasonCode.UNSPECIFIED,
                                seq=self._seq.next())
            self.injector.transmit(frame)
            self.deauths_injected += 1

        stopper = self.sim.every(1.0 / self.containment_rate_hz, inject)
        self._contained[(bssid, channel)] = stopper
