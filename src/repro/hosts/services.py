"""Host-side services: DNS server/resolver, DHCP server/client, UDP echo.

These are the small daemons scenarios run on hosts — the hostile
hotspot, for instance, is "just" a DHCP server that names itself as
gateway and DNS, plus a DNS server that answers whatever serves the
attacker.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.hosts.host import Host
from repro.netstack.addressing import IPv4Address
from repro.netstack.dhcp import (
    DHCP_CLIENT_PORT,
    DHCP_SERVER_PORT,
    DhcpMessage,
    DhcpMessageType,
    LeasePool,
)
from repro.netstack.dns import DNS_PORT, DnsMessage, DnsZone
from repro.sim.errors import ProtocolError

__all__ = [
    "DhcpClientService",
    "DhcpServerService",
    "DnsResolver",
    "DnsServerService",
    "UdpEchoService",
]


class UdpEchoService:
    """Echo every datagram back to its sender."""

    def __init__(self, host: Host, port: int = 7) -> None:
        self.sock = host.udp_socket(port)
        self.sock.on_datagram = self._echo
        self.echoed = 0

    def _echo(self, payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
        self.echoed += 1
        self.sock.sendto(payload, src_ip, src_port)


class DnsServerService:
    """An authoritative DNS server over the simulated UDP."""

    def __init__(self, host: Host, zone: DnsZone, port: int = DNS_PORT) -> None:
        self.host = host
        self.zone = zone
        self.sock = host.udp_socket(port)
        self.sock.on_datagram = self._on_query
        self.queries = 0
        #: Optional rewrite hook — a hostile resolver can lie selectively.
        self.answer_hook: Optional[Callable[[str, Optional[IPv4Address]], Optional[IPv4Address]]] = None

    def _on_query(self, payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
        try:
            query = DnsMessage.from_bytes(payload)
        except ProtocolError:
            return
        if query.is_response:
            return
        self.queries += 1
        answer = self.zone.resolve(query.name)
        if self.answer_hook is not None:
            answer = self.answer_hook(query.name, answer)
        answers = (answer,) if answer is not None else ()
        self.sock.sendto(query.answered(*answers).to_bytes(), src_ip, src_port)


class DnsResolver:
    """A stub resolver: one outstanding query at a time per name.

    Faithfully naive: it accepts the first response whose transaction
    id and name match — from anyone.  (E-WIRED's DNS-spoofing attacker
    races exactly this check.)
    """

    TIMEOUT_S = 2.0
    RETRIES = 2

    def __init__(self, host: Host, server_ip: "IPv4Address | str") -> None:
        self.host = host
        self.server_ip = IPv4Address(server_ip)
        self.sock = host.udp_socket()
        self.sock.on_datagram = self._on_response
        self._rng = host.sim.rng.substream(f"dns.{host.name}")
        self._pending: dict[int, tuple[str, Callable[[Optional[IPv4Address]], None]]] = {}
        self.cache: dict[str, IPv4Address] = {}

    def resolve(self, name: str, callback: Callable[[Optional[IPv4Address]], None]) -> None:
        cached = self.cache.get(name.lower())
        if cached is not None:
            self.host.sim.call_soon(callback, cached)
            return
        txn = self._rng.randrange(0, 0x10000)
        self._pending[txn] = (name, callback)
        self._send_query(txn, name, tries_left=self.RETRIES)

    def _send_query(self, txn: int, name: str, tries_left: int) -> None:
        if txn not in self._pending:
            return
        self.sock.sendto(DnsMessage.query(txn, name).to_bytes(), self.server_ip, DNS_PORT)

        def timeout() -> None:
            if txn not in self._pending:
                return
            if tries_left > 0:
                self._send_query(txn, name, tries_left - 1)
            else:
                _, cb = self._pending.pop(txn)
                cb(None)

        self.host.sim.schedule(self.TIMEOUT_S, timeout)

    def _on_response(self, payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
        try:
            msg = DnsMessage.from_bytes(payload)
        except ProtocolError:
            return
        if not msg.is_response:
            return
        entry = self._pending.get(msg.txn_id)
        if entry is None or entry[0].lower() != msg.name.lower():
            return
        name, callback = self._pending.pop(msg.txn_id)
        answer = msg.answers[0] if msg.answers else None
        if answer is not None:
            self.cache[name.lower()] = answer
        callback(answer)


class DhcpServerService:
    """DHCP on one interface: hands out addresses, gateway, and DNS."""

    def __init__(
        self,
        host: Host,
        iface_name: str,
        pool: LeasePool,
        *,
        gateway: "IPv4Address | str",
        dns_server: "IPv4Address | str",
    ) -> None:
        self.host = host
        self.iface_name = iface_name
        self.pool = pool
        self.gateway = IPv4Address(gateway)
        self.dns_server = IPv4Address(dns_server)
        self.sock = host.udp_socket(DHCP_SERVER_PORT)
        self.sock.on_datagram = self._on_message
        self.acks_sent = 0

    def _on_message(self, payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
        try:
            msg = DhcpMessage.from_bytes(payload)
        except ProtocolError:
            return
        iface = self.host.interfaces[self.iface_name]
        if msg.message_type == DhcpMessageType.DISCOVER:
            reply_type = DhcpMessageType.OFFER
        elif msg.message_type == DhcpMessageType.REQUEST:
            reply_type = DhcpMessageType.ACK
            self.acks_sent += 1
        else:
            return
        lease_ip = self.pool.lease_for(msg.client_mac)
        reply = DhcpMessage(
            message_type=reply_type,
            xid=msg.xid,
            client_mac=msg.client_mac,
            your_ip=lease_ip,
            server_ip=iface.ip or IPv4Address(0),
            gateway=self.gateway,
            dns_server=self.dns_server,
            netmask=self.pool.network.netmask,
        )
        # Reply by broadcast: the client has no address yet.
        self.sock.sendto(reply.to_bytes(), IPv4Address("255.255.255.255"),
                         DHCP_CLIENT_PORT, via_iface=self.iface_name)


class DhcpClientService:
    """DHCP client on one interface: DISCOVER → OFFER → REQUEST → ACK."""

    TIMEOUT_S = 1.0
    RETRIES = 3

    def __init__(self, host: Host, iface_name: str,
                 on_configured: Optional[Callable[[DhcpMessage], None]] = None) -> None:
        self.host = host
        self.iface_name = iface_name
        self.on_configured = on_configured
        self.sock = host.udp_socket(DHCP_CLIENT_PORT)
        self.sock.on_datagram = self._on_message
        self._rng = host.sim.rng.substream(f"dhcp.{host.name}")
        self._xid: Optional[int] = None
        self._state = "IDLE"
        self.lease: Optional[DhcpMessage] = None

    def start(self) -> None:
        self._xid = self._rng.randrange(0, 1 << 32)
        self._state = "SELECTING"
        self._send(DhcpMessageType.DISCOVER, tries_left=self.RETRIES)

    def _send(self, mtype: DhcpMessageType, tries_left: int) -> None:
        if self._state == "BOUND":
            return
        iface = self.host.interfaces[self.iface_name]
        msg = DhcpMessage(message_type=mtype, xid=self._xid or 0, client_mac=iface.mac)
        self.sock.sendto(msg.to_bytes(), IPv4Address("255.255.255.255"),
                         DHCP_SERVER_PORT, via_iface=self.iface_name)

        def timeout() -> None:
            if self._state == "BOUND":
                return
            if tries_left > 0:
                self._send(mtype, tries_left - 1)

        self.host.sim.schedule(self.TIMEOUT_S, timeout)

    def _on_message(self, payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
        try:
            msg = DhcpMessage.from_bytes(payload)
        except ProtocolError:
            return
        iface = self.host.interfaces[self.iface_name]
        if msg.xid != self._xid or msg.client_mac != iface.mac:
            return
        if msg.message_type == DhcpMessageType.OFFER and self._state == "SELECTING":
            self._state = "REQUESTING"
            self._send(DhcpMessageType.REQUEST, tries_left=self.RETRIES)
        elif msg.message_type == DhcpMessageType.ACK and self._state == "REQUESTING":
            self._state = "BOUND"
            self.lease = msg
            iface.configure_ip(msg.your_ip, msg.netmask)
            if not msg.gateway.is_unspecified:
                self.host.routing.add_default(msg.gateway, self.iface_name)
            self.host.sim.trace.emit("dhcp.bound", self.host.name,
                                     ip=str(msg.your_ip), gw=str(msg.gateway),
                                     dns=str(msg.dns_server))
            if self.on_configured is not None:
                self.on_configured(msg)
