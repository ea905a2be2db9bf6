"""Wireless client stations.

A :class:`Station` is the victim's laptop: a host with one managed
wireless NIC and convenience wrappers for the join-and-configure dance
("The unsuspecting client will be configured to connect to the
corporate network with SSID CORP and have the WEP key entered into his
machine", §4.1).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.crypto.wep import WepKey
from repro.dot11.mac import MacAddress
from repro.hosts.host import Host
from repro.hosts.nic import WirelessInterface
from repro.netstack.addressing import IPv4Address
from repro.radio.medium import Medium
from repro.radio.propagation import Position
from repro.sim.kernel import Simulator

__all__ = ["Station"]


class Station(Host):
    """A host with a single managed 802.11b interface named ``wlan0``."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        medium: Medium,
        position: Position,
        *,
        mac: Optional[MacAddress] = None,
    ) -> None:
        super().__init__(sim, name)
        if mac is None:
            mac = MacAddress.random(sim.rng.substream(f"mac.{name}"))
        self.wlan = WirelessInterface("wlan0", mac, medium, position)
        self.add_interface(self.wlan)

    @property
    def position(self) -> Position:
        return self.wlan.port.position

    def connect(
        self,
        ssid: str,
        *,
        wep_key: Optional[WepKey] = None,
        wpa_psk: Optional[bytes] = None,
        ip: Optional[str] = None,
        gateway: Optional[str] = None,
        auth_algorithm: int = 0,
        policy: Optional[Callable] = None,
        rsn=None,
        sae_password: Optional[str] = None,
        rsn_strict: bool = True,
    ) -> None:
        """Join a network and statically configure IP on a /24 (the §4.1
        victim setup)."""
        if ip is not None:
            self.wlan.configure_ip(ip)
        if gateway is not None:
            self.routing.add_default(IPv4Address(gateway), "wlan0")
        self.wlan.join(ssid, wep_key=wep_key, wpa_psk=wpa_psk,
                       auth_algorithm=auth_algorithm,
                       policy=policy,
                       rsn=rsn, sae_password=sae_password,
                       rsn_strict=rsn_strict)

    @property
    def associated_bssid(self) -> Optional[MacAddress]:
        return self.wlan.bssid if self.wlan.associated else None

    @property
    def associated_channel(self) -> Optional[int]:
        return self.wlan.channel if self.wlan.associated else None
