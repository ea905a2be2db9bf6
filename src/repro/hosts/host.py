"""The host: interfaces + ARP + routing + Netfilter + transports.

This is the "Linux operating system" box of §4.1 — victim laptop,
gateway machine, web server, and VPN endpoint are all instances.  The
IP path mirrors Linux's: PREROUTING → routing decision → INPUT or
FORWARD → POSTROUTING, with connection-tracked NAT, proxy-ARP
(parprouted's mechanism), and an ``ip_forward`` flag that Appendix A
flips with ``echo 1 > /proc/sys/net/ipv4/ip_forward``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dot11.mac import BROADCAST, MacAddress
from repro.hosts.nic import Interface, TunInterface
from repro.netstack.addressing import IPv4Address
from repro.netstack.arp import ArpOp, ArpPacket, ArpTable, record_arp_hop
from repro.netstack.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4
from repro.netstack.icmp import IcmpMessage, IcmpType
from repro.netstack.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP, IPv4Packet
from repro.netstack.netfilter import Chain, Netfilter, Verdict
from repro.netstack.pcap import CapturedPacket, PacketCapture
from repro.netstack.routing import RoutingTable
from repro.netstack.tcp import (
    FLAG_ACK,
    FLAG_RST,
    FLAG_SYN,
    TcpConnection,
    TcpSegment,
)
from repro.netstack.udp import UdpDatagram
from repro.obs.runtime import instruments
from repro.sim.errors import ConfigurationError, NetworkError, ProtocolError, SocketError
from repro.sim.kernel import Simulator

__all__ = ["Host", "TcpListener", "UdpSocket"]

LIMITED_BROADCAST = IPv4Address("255.255.255.255")


class UdpSocket:
    """A bound UDP endpoint on a host."""

    def __init__(self, host: "Host", port: int) -> None:
        self.host = host
        self.port = port
        self.on_datagram: Optional[Callable[[bytes, IPv4Address, int], None]] = None
        self.closed = False
        self.rx_count = 0
        self.tx_count = 0

    def sendto(self, payload: bytes, dst_ip: "IPv4Address | str", dst_port: int,
               *, via_iface: Optional[str] = None) -> None:
        if self.closed:
            raise SocketError("socket closed")
        self.tx_count += 1
        self.host.udp_send(self.port, payload, IPv4Address(dst_ip), dst_port,
                           via_iface=via_iface)

    def deliver(self, payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
        self.rx_count += 1
        if self.on_datagram is not None:
            self.on_datagram(payload, src_ip, src_port)

    def close(self) -> None:
        self.closed = True
        self.host._udp_socks.pop(self.port, None)


class TcpListener:
    """A passive TCP endpoint; spawns a connection per inbound SYN."""

    def __init__(self, host: "Host", port: int,
                 on_connection: Callable[[TcpConnection], None]) -> None:
        self.host = host
        self.port = port
        self.on_connection = on_connection
        self.accepted = 0
        self.closed = False

    def close(self) -> None:
        self.closed = True
        self.host._tcp_listeners.pop(self.port, None)


class Host:
    """A simulated computer."""

    ARP_RETRY_S = 0.5
    ARP_MAX_TRIES = 3
    EPHEMERAL_BASE = 20000

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.interfaces: dict[str, Interface] = {}
        self.routing = RoutingTable()
        self.netfilter = Netfilter()
        self.ip_forward = False
        self.arp_tables: dict[str, ArpTable] = {}
        #: Learn from unsolicited ARP replies (Linux-like default; the
        #: behaviour ARP poisoning requires).
        self.arp_accept_unsolicited = True
        self.capture: Optional[PacketCapture] = None
        #: Optional promiscuous L2 tap: (iface, src, dst, ethertype, payload).
        self.l2_tap: Optional[Callable] = None
        #: ARP observers: called with (iface, ArpPacket) for every ARP seen.
        self.arp_listeners: list[Callable] = []
        self._udp_socks: dict[int, UdpSocket] = {}
        self._tcp_listeners: dict[int, TcpListener] = {}
        self._tcp_conns: dict[tuple, TcpConnection] = {}
        self._arp_pending: dict[tuple[str, IPv4Address], list[IPv4Packet]] = {}
        self._arp_tries: dict[tuple[str, IPv4Address], int] = {}
        self._ephemeral_next = self.EPHEMERAL_BASE + sim.rng.substream(
            f"ephemeral.{name}").randrange(0, 5000)
        self._ping_waiters: dict[tuple[int, int], Callable[[float], None]] = {}
        self._ping_error_waiters: dict[tuple[int, int], Callable] = {}
        self._ping_ident = sim.rng.substream(f"ping.{name}").randrange(1, 0xFFFF)
        self._ping_seq = 0
        self._ping_times: dict[tuple[int, int], float] = {}
        # counters
        self.packets_forwarded = 0
        self.packets_delivered = 0
        self.packets_dropped = 0

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def add_interface(self, iface: Interface) -> Interface:
        if iface.name in self.interfaces:
            raise ConfigurationError(f"duplicate interface name {iface.name!r}")
        self.interfaces[iface.name] = iface
        self.arp_tables[iface.name] = ArpTable()
        iface.bind(self)
        # If the interface was IP-configured before attach, install the route.
        if iface.network is not None:
            self.routing.add_connected(iface.network, iface.name)
        return iface

    def enable_capture(self) -> PacketCapture:
        """Start tcpdump-style IP capture on all interfaces."""
        if self.capture is None:
            self.capture = PacketCapture()
        return self.capture

    def local_ips(self) -> list[IPv4Address]:
        return [i.ip for i in self.interfaces.values() if i.ip is not None]

    def _is_local_ip(self, ip: IPv4Address) -> bool:
        if ip == LIMITED_BROADCAST:
            return True
        for iface in self.interfaces.values():
            if iface.ip == ip:
                return True
            if iface.network is not None and ip == iface.network.broadcast:
                return True
        return False

    def _capture(self, direction: str, iface_name: str, packet: IPv4Packet) -> None:
        if self.capture is not None:
            self.capture.add(CapturedPacket(time=self.sim.now, direction=direction,
                                            interface=iface_name, packet=packet))

    # ------------------------------------------------------------------
    # link-layer input
    # ------------------------------------------------------------------
    def receive_link(self, iface: Interface, src_mac: MacAddress, dst_mac: MacAddress,
                     ethertype: int, payload: bytes) -> None:
        if self.l2_tap is not None:
            self.l2_tap(iface, src_mac, dst_mac, ethertype, payload)
        if ethertype == ETHERTYPE_ARP:
            try:
                self._handle_arp(iface, ArpPacket.from_bytes(payload))
            except ProtocolError:
                pass
            return
        if ethertype != ETHERTYPE_IPV4:
            return
        if dst_mac != iface.mac and not dst_mac.is_broadcast and not dst_mac.is_multicast:
            return  # promiscuous noise, not addressed to us
        try:
            packet = IPv4Packet.from_bytes(payload)
        except ProtocolError:
            return
        self.receive_ip(packet, iface)

    # ------------------------------------------------------------------
    # ARP
    # ------------------------------------------------------------------
    def _handle_arp(self, iface: Interface, arp: ArpPacket) -> None:
        record_arp_hop(self.name, iface.name, arp, self.sim.now)
        for listener in self.arp_listeners:
            listener(iface, arp)
        table = self.arp_tables[iface.name]
        addressed_to_us = iface.ip is not None and arp.target_ip == iface.ip
        if not arp.sender_ip.is_unspecified and (
            addressed_to_us or self.arp_accept_unsolicited
        ):
            table.learn(arp.sender_ip, arp.sender_mac, self.sim.now)
            self._flush_arp_pending(iface, arp.sender_ip, arp.sender_mac)
        if arp.op is not ArpOp.REQUEST:
            return
        if addressed_to_us:
            self._arp_reply(iface, arp, iface.mac)
        elif getattr(iface, "proxy_arp", False) and not arp.target_ip.is_unspecified:
            # parprouted semantics: answer for addresses we route elsewhere.
            route = self.routing.lookup(arp.target_ip)
            if route is not None and route.interface != iface.name:
                self.sim.trace.emit("arp.proxy_reply", self.name,
                                    iface=iface.name, target=str(arp.target_ip),
                                    asker=str(arp.sender_ip))
                self._arp_reply(iface, arp, iface.mac)

    def _arp_reply(self, iface: Interface, request: ArpPacket, mac: MacAddress) -> None:
        reply = ArpPacket.reply(sender_mac=mac, sender_ip=request.target_ip,
                                target_mac=request.sender_mac, target_ip=request.sender_ip)
        iface.send_frame_to(request.sender_mac, ETHERTYPE_ARP, reply.to_bytes())

    def _flush_arp_pending(self, iface: Interface, ip: IPv4Address, mac: MacAddress) -> None:
        key = (iface.name, ip)
        queued = self._arp_pending.pop(key, [])
        self._arp_tries.pop(key, None)
        for packet in queued:
            iface.send_frame_to(mac, ETHERTYPE_IPV4, packet.to_bytes())

    def _arp_resolve_and_send(self, iface: Interface, next_hop: IPv4Address,
                              packet: IPv4Packet) -> None:
        mac = self.arp_tables[iface.name].lookup(next_hop, self.sim.now)
        if mac is not None:
            iface.send_frame_to(mac, ETHERTYPE_IPV4, packet.to_bytes())
            return
        key = (iface.name, next_hop)
        queue = self._arp_pending.setdefault(key, [])
        queue.append(packet)
        if len(queue) > 64:
            del queue[:32]
        if key not in self._arp_tries:
            self._arp_tries[key] = 0
            self._arp_request(iface, next_hop)

    def _arp_request(self, iface: Interface, target: IPv4Address) -> None:
        key = (iface.name, target)
        if key not in self._arp_tries:
            return  # already resolved/flushed
        if self._arp_tries[key] >= self.ARP_MAX_TRIES:
            dropped = self._arp_pending.pop(key, [])
            self._arp_tries.pop(key, None)
            self.packets_dropped += len(dropped)
            self.sim.trace.emit("arp.timeout", self.name,
                                iface=iface.name, target=str(target),
                                dropped=len(dropped))
            return
        self._arp_tries[key] += 1
        req = ArpPacket.request(iface.mac, iface.ip or IPv4Address(0), target)
        iface.send_frame_to(BROADCAST, ETHERTYPE_ARP, req.to_bytes())
        self.sim.schedule(self.ARP_RETRY_S, self._arp_request, iface, target)

    # ------------------------------------------------------------------
    # IP input / forwarding
    # ------------------------------------------------------------------
    def receive_ip(self, packet: IPv4Packet, iface: Interface) -> None:
        self._capture("in", iface.name, packet)
        verdict, packet, natted = self.netfilter.process(
            Chain.PREROUTING, packet, self.sim.now,
            in_iface=iface.name, local_ip=iface.ip,
        )
        if verdict is Verdict.DROP:
            self.packets_dropped += 1
            return
        if self._is_local_ip(packet.dst):
            verdict, packet, _ = self.netfilter.process(
                Chain.INPUT, packet, self.sim.now, in_iface=iface.name, nat=False)
            if verdict is Verdict.DROP:
                self.packets_dropped += 1
                return
            self.packets_delivered += 1
            self._deliver_local(packet, iface)
            return
        if not self.ip_forward:
            self.packets_dropped += 1
            return
        verdict, packet, _ = self.netfilter.process(
            Chain.FORWARD, packet, self.sim.now, in_iface=iface.name, nat=False)
        if verdict is Verdict.DROP:
            self.packets_dropped += 1
            return
        try:
            packet = packet.decremented()
        except ProtocolError:
            self.sim.trace.emit("ip.ttl_expired", self.name, dst=str(packet.dst))
            self.packets_dropped += 1
            self._send_icmp_error(packet, IcmpMessage.time_exceeded, iface)
            return
        self.packets_forwarded += 1
        self._capture("forward", iface.name, packet)
        rec = instruments().recorder
        if rec is not None and rec.current() is not None:
            # On the rogue this is the parprouted/ip_forward bridge hop:
            # the packet crossed from one interface toward the other.
            rec.hop("ip", "forward", host=self.name, t=self.sim.now,
                    in_iface=iface.name, src=str(packet.src),
                    dst=str(packet.dst), ttl=packet.ttl)
        self._route_and_send(packet, originated=False, nat_done=natted)

    def send_ip(self, packet: IPv4Packet, *, via_iface: Optional[str] = None) -> None:
        """Transmit a locally-generated packet (runs OUTPUT/POSTROUTING)."""
        verdict, packet, natted = self.netfilter.process(
            Chain.OUTPUT, packet, self.sim.now)
        if verdict is Verdict.DROP:
            self.packets_dropped += 1
            return
        self._route_and_send(packet, originated=True, via_iface=via_iface,
                             nat_done=natted)

    def _route_and_send(self, packet: IPv4Packet, *, originated: bool,
                        via_iface: Optional[str] = None,
                        nat_done: bool = False) -> None:
        if via_iface is not None:
            iface = self.interfaces[via_iface]
            next_hop = packet.dst
        else:
            route = self.routing.lookup(packet.dst)
            if route is None:
                self.packets_dropped += 1
                self.sim.trace.emit("ip.no_route", self.name, dst=str(packet.dst))
                if not originated:
                    self._send_icmp_error(packet, IcmpMessage.unreachable, None)
                return
            iface = self.interfaces[route.interface]
            next_hop = route.gateway or packet.dst
        verdict, packet, _ = self.netfilter.process(
            Chain.POSTROUTING, packet, self.sim.now, out_iface=iface.name,
            nat=not nat_done)
        if verdict is Verdict.DROP:
            self.packets_dropped += 1
            return
        self._capture("out", iface.name, packet)
        if isinstance(iface, TunInterface):
            iface.transmit_ip(packet)
            return
        if packet.dst == LIMITED_BROADCAST or (
            iface.network is not None and packet.dst == iface.network.broadcast
        ):
            iface.send_frame_to(BROADCAST, ETHERTYPE_IPV4, packet.to_bytes())
            return
        if not iface.needs_arp:
            raise ConfigurationError(f"interface {iface.name} cannot route {packet.dst}")
        self._arp_resolve_and_send(iface, next_hop, packet)

    # ------------------------------------------------------------------
    # local delivery
    # ------------------------------------------------------------------
    def _deliver_local(self, packet: IPv4Packet, iface: Interface) -> None:
        rec = instruments().recorder
        if rec is not None and rec.current() is not None:
            rec.hop("ip", "deliver", host=self.name, t=self.sim.now,
                    proto=packet.proto, src=str(packet.src),
                    dst=str(packet.dst))
        if packet.proto == PROTO_ICMP:
            self._deliver_icmp(packet)
        elif packet.proto == PROTO_UDP:
            self._deliver_udp(packet)
        elif packet.proto == PROTO_TCP:
            self._deliver_tcp(packet)

    def _send_icmp_error(self, original: IPv4Packet, builder, iface) -> None:
        """Emit an ICMP error quoting the offending packet.

        RFC 1122 discipline: never generate errors about ICMP errors,
        and never about broadcasts.
        """
        if original.proto == PROTO_ICMP and len(original.payload) >= 1 \
                and original.payload[0] not in (IcmpType.ECHO_REQUEST,
                                                IcmpType.ECHO_REPLY):
            return
        if original.src.is_broadcast or original.src.is_unspecified:
            return
        try:
            src = self.source_ip_for(original.src)
        except NetworkError:
            return
        msg = builder(original.to_bytes())
        self.send_ip(IPv4Packet(src=src, dst=original.src, proto=PROTO_ICMP,
                                payload=msg.to_bytes()))

    @staticmethod
    def _quoted_echo_key(msg: IcmpMessage) -> Optional[tuple[int, int]]:
        """Extract (ident, seq) of the echo request quoted in an ICMP error."""
        quoted = msg.payload
        if len(quoted) < 28:
            return None
        inner = quoted[20:28]  # the first 8 bytes of the original ICMP
        if inner[0] != IcmpType.ECHO_REQUEST:
            return None
        rest = int.from_bytes(inner[4:8], "big")
        return ((rest >> 16) & 0xFFFF, rest & 0xFFFF)

    def _deliver_icmp(self, packet: IPv4Packet) -> None:
        try:
            msg = IcmpMessage.from_bytes(packet.payload)
        except ProtocolError:
            return
        if msg.icmp_type == IcmpType.ECHO_REQUEST:
            reply = IcmpMessage.echo_reply_to(msg)
            self.send_ip(IPv4Packet(src=packet.dst, dst=packet.src,
                                    proto=PROTO_ICMP, payload=reply.to_bytes()))
        elif msg.icmp_type == IcmpType.ECHO_REPLY:
            key = (msg.echo_ident, msg.echo_seq)
            waiter = self._ping_waiters.pop(key, None)
            sent = self._ping_times.pop(key, None)
            self._ping_error_waiters.pop(key, None)
            if waiter is not None and sent is not None:
                waiter(self.sim.now - sent)
        elif msg.icmp_type in (IcmpType.TIME_EXCEEDED, IcmpType.DEST_UNREACHABLE):
            key = self._quoted_echo_key(msg)
            if key is None:
                return
            on_error = self._ping_error_waiters.pop(key, None)
            self._ping_waiters.pop(key, None)
            self._ping_times.pop(key, None)
            if on_error is not None:
                on_error(packet.src, int(msg.icmp_type))

    def _deliver_udp(self, packet: IPv4Packet) -> None:
        try:
            dgram = UdpDatagram.from_bytes(packet.payload, packet.src, packet.dst)
        except ProtocolError:
            return
        sock = self._udp_socks.get(dgram.dst_port)
        if sock is not None:
            sock.deliver(dgram.payload, packet.src, dgram.src_port)

    def _deliver_tcp(self, packet: IPv4Packet) -> None:
        try:
            segment = TcpSegment.from_bytes(packet.payload, packet.src, packet.dst)
        except ProtocolError:
            return
        key = (packet.dst, segment.dst_port, packet.src, segment.src_port)
        conn = self._tcp_conns.get(key)
        if conn is not None and not conn.closed:
            conn.handle_segment(segment)
            return
        listener = self._tcp_listeners.get(segment.dst_port)
        if listener is not None and not listener.closed and segment.flags & FLAG_SYN \
                and not segment.flags & FLAG_ACK:
            conn = self._make_connection(packet.dst, segment.dst_port,
                                         packet.src, segment.src_port)
            conn.accept_syn(segment)
            listener.accepted += 1
            listener.on_connection(conn)
            return
        if not segment.flags & FLAG_RST:
            self._send_rst(packet, segment)

    def _send_rst(self, packet: IPv4Packet, segment: TcpSegment) -> None:
        if segment.flags & FLAG_ACK:
            rst = TcpSegment(src_port=segment.dst_port, dst_port=segment.src_port,
                             seq=segment.ack, ack=0, flags=FLAG_RST)
        else:
            adv = len(segment.payload) + (1 if segment.flags & FLAG_SYN else 0)
            rst = TcpSegment(src_port=segment.dst_port, dst_port=segment.src_port,
                             seq=0, ack=(segment.seq + adv) % (1 << 32),
                             flags=FLAG_RST | FLAG_ACK)
        self.send_ip(IPv4Packet(src=packet.dst, dst=packet.src, proto=PROTO_TCP,
                                payload=rst.to_bytes(packet.dst, packet.src)))

    # ------------------------------------------------------------------
    # transport APIs
    # ------------------------------------------------------------------
    def source_ip_for(self, dst: IPv4Address) -> IPv4Address:
        """Source-address selection: the IP of the egress interface."""
        route = self.routing.lookup(dst)
        if route is None:
            raise NetworkError(f"{self.name}: no route to {dst}")
        iface = self.interfaces[route.interface]
        if iface.ip is None:
            raise NetworkError(f"{self.name}: egress {iface.name} has no IP")
        return iface.ip

    def ephemeral_port(self) -> int:
        port = self._ephemeral_next
        self._ephemeral_next += 1
        if self._ephemeral_next >= 65000:
            self._ephemeral_next = self.EPHEMERAL_BASE
        return port

    def udp_socket(self, port: Optional[int] = None) -> UdpSocket:
        if port is None:
            port = self.ephemeral_port()
        if port in self._udp_socks:
            raise SocketError(f"UDP port {port} already bound on {self.name}")
        sock = UdpSocket(self, port)
        self._udp_socks[port] = sock
        return sock

    def udp_send(self, src_port: int, payload: bytes, dst_ip: IPv4Address,
                 dst_port: int, *, via_iface: Optional[str] = None) -> None:
        if via_iface is not None:
            iface = self.interfaces[via_iface]
            src_ip = iface.ip or IPv4Address(0)
        elif dst_ip == LIMITED_BROADCAST:
            raise NetworkError("broadcast sends require via_iface")
        else:
            src_ip = self.source_ip_for(dst_ip)
        dgram = UdpDatagram(src_port=src_port, dst_port=dst_port, payload=payload)
        self.send_ip(IPv4Packet(src=src_ip, dst=dst_ip, proto=PROTO_UDP,
                                payload=dgram.to_bytes(src_ip, dst_ip)),
                     via_iface=via_iface)

    def tcp_listen(self, port: int,
                   on_connection: Callable[[TcpConnection], None]) -> TcpListener:
        if port in self._tcp_listeners:
            raise SocketError(f"TCP port {port} already listening on {self.name}")
        listener = TcpListener(self, port, on_connection)
        self._tcp_listeners[port] = listener
        return listener

    def tcp_connect(self, dst_ip: "IPv4Address | str",
                    dst_port: int) -> TcpConnection:
        dst_ip = IPv4Address(dst_ip)
        src_ip = self.source_ip_for(dst_ip)
        conn = self._make_connection(src_ip, self.ephemeral_port(), dst_ip, dst_port)
        conn.connect()
        return conn

    def _make_connection(self, local_ip: IPv4Address, local_port: int,
                         remote_ip: IPv4Address, remote_port: int,
                         mss: int = 1460) -> TcpConnection:
        def send_segment(segment: TcpSegment) -> None:
            self.send_ip(IPv4Packet(src=local_ip, dst=remote_ip, proto=PROTO_TCP,
                                    payload=segment.to_bytes(local_ip, remote_ip)))

        conn = TcpConnection(self.sim, local_ip, local_port, remote_ip, remote_port,
                             send_segment, mss=mss)
        self._tcp_conns[conn.four_tuple] = conn
        return conn

    def reap_closed_connections(self) -> int:
        """Drop CLOSED connections from the table; returns how many."""
        dead = [k for k, c in self._tcp_conns.items() if c.closed]
        for k in dead:
            del self._tcp_conns[k]
        return len(dead)

    # ------------------------------------------------------------------
    # ping
    # ------------------------------------------------------------------
    def ping(self, dst: "IPv4Address | str",
             on_reply: Optional[Callable[[float], None]] = None,
             *, ttl: int = 64,
             on_error: Optional[Callable[[IPv4Address, int], None]] = None) -> None:
        """Send one ICMP echo request; ``on_reply`` gets the RTT.

        ``ttl`` enables traceroute-style probing: ``on_error`` receives
        ``(responder_ip, icmp_type)`` for TIME_EXCEEDED / UNREACHABLE
        answers — which is how :mod:`repro.defense.pathcheck` exposes an
        in-path rogue bridge.
        """
        dst = IPv4Address(dst)
        self._ping_seq += 1
        key = (self._ping_ident, self._ping_seq)
        if on_reply is not None:
            self._ping_waiters[key] = on_reply
        if on_error is not None:
            self._ping_error_waiters[key] = on_error
        self._ping_times[key] = self.sim.now
        msg = IcmpMessage.echo_request(self._ping_ident, self._ping_seq)
        src = self.source_ip_for(dst)
        self.send_ip(IPv4Packet(src=src, dst=dst, proto=PROTO_ICMP,
                                payload=msg.to_bytes(), ttl=ttl))

    def __repr__(self) -> str:
        return f"<Host {self.name} ifaces={list(self.interfaces)}>"
