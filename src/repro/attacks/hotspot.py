"""The Hostile Hotspot (§1.3.2).

"A Hostile Hotspot is a wireless hotspot ... where the owner or
administrator of that hotspot has malicious intentions and tampers
with the traffic it handles."

Unlike the rogue AP, nothing here is spoofed: the hotspot *is* the
legitimate infrastructure of its own little network.  Visiting clients
DHCP from it, resolve DNS through it, and route every byte through its
gateway — so tampering is a one-line rewrite rule, and §5.1's "CNN
user" gets exploit script injected into pages from a perfectly
trustworthy publisher.
"""

from __future__ import annotations

from typing import Optional

from repro.dot11.mac import MacAddress
from repro.hosts.ap_core import SoftApInterface
from repro.hosts.host import Host
from repro.hosts.nic import WiredInterface
from repro.hosts.services import DhcpServerService, DnsServerService
from repro.netstack.addressing import IPv4Address, Network
from repro.netstack.dhcp import LeasePool
from repro.netstack.dns import DnsZone
from repro.netstack.ethernet import LanSegment
from repro.radio.medium import Medium
from repro.radio.propagation import Position
from repro.sim.kernel import Simulator

__all__ = ["HostileHotspot"]


class HostileHotspot:
    """An open hotspot whose gateway rewrites forwarded HTTP responses.

    Parameters
    ----------
    tamper_rules:
        ``(old, new)`` byte pairs applied to forwarded port-80 response
        segments.  Empty = an honest hotspot (the control arm).
    upstream_dns:
        Zone entries served to visitors (honest answers by default —
        the §5.1 attack doesn't even need DNS lies).
    """

    NETWORK = Network("192.168.7.0/24")
    GATEWAY_IP = IPv4Address("192.168.7.1")

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        position: Position,
        upstream_segment: LanSegment,
        upstream_ip: str,
        upstream_gateway: str,
        *,
        ssid: str = "FreeAirportWiFi",
        channel: int = 11,
        zone: Optional[DnsZone] = None,
        tamper_rules: Optional[list[tuple[bytes, bytes]]] = None,
        name: str = "hotspot",
    ) -> None:
        self.sim = sim
        self.ssid = ssid
        self.gateway = Host(sim, f"{name}-gw")
        self.gateway.ip_forward = True
        bssid = MacAddress.random(sim.rng.substream(f"mac.{name}"))
        self.wlan = SoftApInterface("wlan0", medium, position,
                                    bssid=bssid, ssid=ssid, channel=channel)
        self.gateway.add_interface(self.wlan)
        self.wlan.configure_ip(str(self.GATEWAY_IP), str(self.NETWORK.netmask))
        # Upstream ("the hotspot's DSL line").
        uplink_mac = MacAddress.random(sim.rng.substream(f"mac.{name}.up"))
        self.uplink = WiredInterface("eth0", uplink_mac)
        self.uplink.attach_segment(upstream_segment)
        self.gateway.add_interface(self.uplink)
        self.uplink.configure_ip(upstream_ip)
        self.gateway.routing.add_default(IPv4Address(upstream_gateway), "eth0")
        # Visitor services: DHCP names us as gateway and DNS.
        self.dhcp = DhcpServerService(
            self.gateway, "wlan0", LeasePool(self.NETWORK),
            gateway=self.GATEWAY_IP, dns_server=self.GATEWAY_IP,
        )
        self.dns = DnsServerService(self.gateway, zone or DnsZone())
        # NAT visitors out the uplink.
        from repro.netstack.netfilter import Chain, Rule, TargetSnat
        self.gateway.netfilter.append(Chain.POSTROUTING, Rule(
            target=TargetSnat(IPv4Address(upstream_ip)), out_iface="eth0",
        ))
        # In-path tampering: the moral equivalent of the §4.1 netsed
        # proxy, but the hotspot owns the gateway outright so no DNAT
        # gymnastics are needed — just a hook on the forwarding path.
        self.tamper_rules = list(tamper_rules or [])
        self.tamperer = None
        if self.tamper_rules:
            from repro.attacks.tamper import InPathTamperer
            self.tamperer = InPathTamperer(self.gateway, rules=self.tamper_rules,
                                           src_port=80, mode="replace")
            self.tamperer.install()

    @property
    def tampered_segments(self) -> int:
        return self.tamperer.tampered if self.tamperer is not None else 0
