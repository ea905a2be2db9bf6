"""DNS response spoofing — the other wired MITM baseline of §1.2.

The attacker races the real DNS server: if it can *see* the victim's
query (hub, or wireless air), it copies the transaction id and answers
first with an attacker-controlled address.  On a switched LAN the
query is invisible and the race can't even start — the structural
difference E-WIRED measures.
"""

from __future__ import annotations

from repro.dot11.mac import MacAddress
from repro.hosts.host import Host
from repro.netstack.addressing import IPv4Address
from repro.netstack.dns import DNS_PORT, DnsMessage
from repro.netstack.ethernet import ETHERTYPE_IPV4
from repro.netstack.ipv4 import PROTO_UDP, IPv4Packet
from repro.netstack.udp import UdpDatagram
from repro.sim.errors import ProtocolError

__all__ = ["DnsSpoofer"]


class DnsSpoofer:
    """Race DNS answers for selected names using a promiscuous tap.

    The attacker host's interface must actually receive the victim's
    query frames (promiscuous wired port on a hub, or a wireless
    monitor feed) — attach with :meth:`arm`.
    """

    def __init__(self, attacker: Host, iface_name: str,
                 lies: dict[str, "IPv4Address | str"]) -> None:
        self.host = attacker
        self.iface = attacker.interfaces[iface_name]
        self.lies = {name.lower(): IPv4Address(ip) for name, ip in lies.items()}
        self.queries_seen = 0
        self.responses_forged = 0

    def arm(self) -> None:
        self.host.l2_tap = self._tap

    def disarm(self) -> None:
        self.host.l2_tap = None

    def _tap(self, iface, src_mac: MacAddress, dst_mac: MacAddress,
             ethertype: int, payload: bytes) -> None:
        if iface is not self.iface or ethertype != ETHERTYPE_IPV4:
            return
        try:
            packet = IPv4Packet.from_bytes(payload)
            if packet.proto != PROTO_UDP:
                return
            dgram = UdpDatagram.from_bytes(packet.payload, packet.src, packet.dst,
                                           verify_checksum=False)
            if dgram.dst_port != DNS_PORT:
                return
            query = DnsMessage.from_bytes(dgram.payload)
        except ProtocolError:
            return
        if query.is_response:
            return
        self.queries_seen += 1
        lie = self.lies.get(query.name.lower())
        if lie is None:
            return
        # Forge the response: source-spoofed as the real server, same
        # transaction id, straight back at L2 so it beats the real one.
        forged = query.answered(lie)
        reply_dgram = UdpDatagram(src_port=DNS_PORT, dst_port=dgram.src_port,
                                  payload=forged.to_bytes())
        reply_packet = IPv4Packet(src=packet.dst, dst=packet.src, proto=PROTO_UDP,
                                  payload=reply_dgram.to_bytes(packet.dst, packet.src))
        self.iface.send_frame_to(src_mac, ETHERTYPE_IPV4, reply_packet.to_bytes())
        self.responses_forged += 1
        self.host.sim.trace.emit("dnsspoof.forged", self.host.name,
                                 name=query.name, lie=str(lie))
