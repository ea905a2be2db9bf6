"""Infrastructure access point: an 802.11 ↔ Ethernet bridge.

The legitimate CORP AP of Figure 1.  It is a transparent L2 bridge:
frames from associated stations egress onto the wired LAN with the
*station's* source MAC preserved, and wired frames destined for an
associated station (or broadcast) are re-encapsulated as from-DS data
frames, WEP-protected if the BSS requires it.

It has no IP stack of its own — which is itself a paper-relevant
point: the AP can't protect anybody at layer 3; it just moves frames.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.wep import WepKey
from repro.dot11.mac import MacAddress
from repro.hosts.ap_core import ApCore, MacFilter
from repro.netstack.ethernet import EthernetFrame, LanSegment, WiredPort
from repro.radio.medium import Medium
from repro.radio.propagation import Position
from repro.sim.kernel import Simulator

__all__ = ["AccessPoint"]


class AccessPoint:
    """A bridging AP: one BSS, one wired uplink."""

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        name: str,
        *,
        bssid: MacAddress,
        ssid: str,
        channel: int,
        position: Position,
        wep_key: Optional[WepKey] = None,
        wpa_psk: Optional[bytes] = None,
        auth_algorithm: int = 0,
        mac_filter: Optional[MacFilter] = None,
        rsn=None,
        sae_password: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.core = ApCore(
            sim, medium, name,
            bssid=bssid, ssid=ssid, channel=channel, position=position,
            wep_key=wep_key, wpa_psk=wpa_psk, auth_algorithm=auth_algorithm,
            mac_filter=mac_filter,
            rsn=rsn, sae_password=sae_password,
        )
        self.core.on_client_frame = self._wireless_to_wired
        # Promiscuous so we see wired frames destined for our stations.
        self.uplink = WiredPort(f"{name}.eth", bssid, promiscuous=True)
        self.uplink.on_receive = self._wired_to_wireless
        self.bridged_to_wired = 0
        self.bridged_to_wireless = 0

    def attach_uplink(self, segment: LanSegment) -> "AccessPoint":
        segment.attach(self.uplink)
        return self

    @property
    def bssid(self) -> MacAddress:
        return self.core.bssid

    @property
    def ssid(self) -> str:
        return self.core.ssid

    # ------------------------------------------------------------------
    # bridging
    # ------------------------------------------------------------------
    def _wireless_to_wired(self, src_mac: MacAddress, dst_mac: MacAddress,
                           ethertype: int, payload: bytes) -> None:
        if self.uplink.segment is None:
            return
        self.bridged_to_wired += 1
        self.uplink.transmit(EthernetFrame(dst=dst_mac, src=src_mac,
                                           ethertype=ethertype, payload=payload))

    def _wired_to_wireless(self, frame: EthernetFrame) -> None:
        if frame.src in self.core.clients:
            return  # our own bridged frame echoed by a hub; ignore
        if frame.dst.is_broadcast or frame.dst.is_multicast:
            self.bridged_to_wireless += 1
            self.core.send_to_client(frame.dst, frame.src, frame.ethertype, frame.payload)
            return
        client = self.core.clients.get(frame.dst)
        if client is not None:
            self.bridged_to_wireless += 1
            self.core.send_to_client(frame.dst, frame.src, frame.ethertype, frame.payload)

    def shutdown(self) -> None:
        self.core.shutdown()
