"""parprouted: the proxy-ARP bridging daemon (paper reference [6]).

§4.1: "After the proper configuration of the wireless interfaces an
ARP proxy bridge was established between the two interfaces using
parprouted."  The real daemon answers ARP requests on each interface
for addresses routed via the other and maintains /32 host routes for
discovered stations.  Our host already implements proxy-ARP keyed on
the routing table (see :meth:`repro.hosts.host.Host._handle_arp`); the
daemon object enables it on the bridged pair and manages the host
routes, mirroring Appendix A.
"""

from __future__ import annotations

from repro.hosts.host import Host
from repro.obs.runtime import instruments
from repro.sim.errors import ConfigurationError

__all__ = ["Parprouted"]


class Parprouted:
    """``parprouted wlan0 eth1`` — proxy-ARP bridge between two interfaces."""

    def __init__(self, host: Host, iface_a: str, iface_b: str) -> None:
        for name in (iface_a, iface_b):
            if name not in host.interfaces:
                raise ConfigurationError(f"{host.name}: no interface {name!r}")
        self.host = host
        self.iface_a = iface_a
        self.iface_b = iface_b
        self.running = False

    def start(self) -> None:
        """Enable proxy-ARP on both interfaces (and IP forwarding)."""
        self.running = True
        self.host.interfaces[self.iface_a].proxy_arp = True
        self.host.interfaces[self.iface_b].proxy_arp = True
        self.host.ip_forward = True
        if self._learn not in self.host.arp_listeners:
            self.host.arp_listeners.append(self._learn)
        self.host.sim.trace.emit("parprouted.start", self.host.name,
                                 bridge=f"{self.iface_a}<->{self.iface_b}")

    def stop(self) -> None:
        self.running = False
        self.host.interfaces[self.iface_a].proxy_arp = False
        self.host.interfaces[self.iface_b].proxy_arp = False
        if self._learn in self.host.arp_listeners:
            self.host.arp_listeners.remove(self._learn)

    def _learn(self, iface, arp) -> None:
        """Dynamic station discovery, as the real daemon does.

        Any ARP whose sender address is seen on one of the bridged
        interfaces yields a /32 route for that sender via that
        interface — so a victim that associates and ARPs for its
        gateway is immediately routable from the other side.
        """
        if not self.running or iface.name not in (self.iface_a, self.iface_b):
            return
        sender = arp.sender_ip
        if sender.is_unspecified or sender in self.host.local_ips():
            return
        existing = self.host.routing.lookup(sender)
        if existing is not None and existing.network.prefix_len == 32:
            return  # already pinned
        self.host.routing.add_host(sender, iface.name)
        rec = instruments().recorder
        if rec is not None and rec.current() is not None:
            rec.hop("parprouted", "learn", host=self.host.name,
                    t=self.host.sim.now, station=str(sender),
                    iface=iface.name)
        self.host.sim.trace.emit("parprouted.learn", self.host.name,
                                 station=str(sender), iface=iface.name)
