"""Longest-prefix-match routing table.

Appendix A of the paper configures the rogue gateway with::

    route add -host 10.0.0.23 dev wlan0
    route add -host 10.0.0.1  dev eth1
    route add default gw 10.0.0.1

Host routes (/32), connected routes, and a default route are exactly
what :class:`RoutingTable` supports; the Linux-flavoured front-end
lives in :mod:`repro.hosts.linuxconf`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.netstack.addressing import IPv4Address, Network

__all__ = ["Route", "RoutingTable"]


@dataclass(frozen=True)
class Route:
    """One routing entry.

    ``gateway`` of None means the destination is directly reachable on
    ``interface`` (ARP for the destination itself).
    """

    network: Network
    interface: str
    gateway: Optional[IPv4Address] = None
    metric: int = 0

    def __str__(self) -> str:
        via = f" via {self.gateway}" if self.gateway else ""
        return f"{self.network}{via} dev {self.interface} metric {self.metric}"


class RoutingTable:
    """Longest-prefix-match over a set of :class:`Route` entries."""

    def __init__(self) -> None:
        self._routes: list[Route] = []

    def add(self, route: Route) -> None:
        self._routes.append(route)
        # Keep sorted: longest prefix first, then lowest metric, so
        # lookup is a linear scan that stops at the first match.
        self._routes.sort(key=lambda r: (-r.network.prefix_len, r.metric))

    def add_connected(self, network: Network, interface: str) -> None:
        """Directly-attached subnet (created automatically by ifconfig)."""
        self.add(Route(network=network, interface=interface))

    def add_host(self, ip: IPv4Address, interface: str,
                 gateway: Optional[IPv4Address] = None) -> None:
        """``route add -host`` equivalent: a /32 route."""
        self.add(Route(network=Network(str(ip), 32), interface=interface, gateway=gateway))

    def add_default(self, gateway: IPv4Address, interface: str) -> None:
        """``route add default gw`` equivalent."""
        self.add(Route(network=Network("0.0.0.0", 0), interface=interface, gateway=gateway))

    def remove(self, network: Network) -> bool:
        for route in list(self._routes):
            if route.network == network:
                self._routes.remove(route)
                return True
        return False

    def clear(self) -> None:
        self._routes.clear()

    def lookup(self, dst: IPv4Address) -> Optional[Route]:
        """Best route for ``dst`` (longest prefix, then lowest metric)."""
        for route in self._routes:
            if dst in route.network:
                return route
        return None

    def routes(self) -> list[Route]:
        return list(self._routes)

    def __len__(self) -> int:
        return len(self._routes)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self._routes) or "<empty routing table>"
