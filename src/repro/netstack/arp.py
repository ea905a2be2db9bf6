"""ARP: packet format and neighbour cache.

ARP is load-bearing twice in the paper: the rogue bridge is an "ARP
proxy bridge ... established between the two interfaces using
parprouted" (§4.1), and classic wired MITM needs "to spoof DNS
requests or ARP requests" (§1.2).  The protocol has no authentication,
so both are a matter of simply answering.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from repro.dot11.mac import MacAddress
from repro.netstack.addressing import IPv4Address
from repro.obs.runtime import instruments
from repro.sim.errors import ProtocolError
from repro.wire import HeaderSpec, fixed_bytes, u8, u16

__all__ = ["ArpOp", "ArpPacket", "ArpTable", "record_arp_hop"]


def record_arp_hop(host: str, iface: str, arp: "ArpPacket", t: float) -> None:
    """Attach an ARP-processing hop to the current frame lineage.

    Called by the host when it handles an ARP packet; a no-op unless a
    flight recorder is installed and a frame is being delivered (the
    lineage context carries the id).
    """
    rec = instruments().recorder
    if rec is None or rec.current() is None:
        return
    rec.hop("arp", arp.op.name.lower(), host=host, t=t, iface=iface,
            sender=str(arp.sender_ip), target=str(arp.target_ip))


class ArpOp(enum.IntEnum):
    REQUEST = 1
    REPLY = 2


# htype/ptype/hlen/plen are constants of IPv4-over-Ethernet ARP: the
# spec emits them on encode and rejects anything else on decode.
_PACKET = HeaderSpec(
    "ARP packet", ">",
    u16("htype", const=1),
    u16("ptype", const=0x0800),
    u8("hlen", const=6),
    u8("plen", const=4),
    u16("op"),
    fixed_bytes("sender_mac", 6, enc=lambda m: m.bytes, dec=MacAddress),
    fixed_bytes("sender_ip", 4, enc=lambda a: a.bytes, dec=IPv4Address),
    fixed_bytes("target_mac", 6, enc=lambda m: m.bytes, dec=MacAddress),
    fixed_bytes("target_ip", 4, enc=lambda a: a.bytes, dec=IPv4Address),
)


@dataclass(frozen=True)
class ArpPacket:
    """An ARP packet for IPv4-over-Ethernet (htype 1, ptype 0x0800)."""

    op: ArpOp
    sender_mac: MacAddress
    sender_ip: IPv4Address
    target_mac: MacAddress
    target_ip: IPv4Address

    def to_bytes(self) -> bytes:
        return _PACKET.pack(
            op=int(self.op),
            sender_mac=self.sender_mac,
            sender_ip=self.sender_ip,
            target_mac=self.target_mac,
            target_ip=self.target_ip,
        )

    @classmethod
    def from_bytes(cls, raw: Union[bytes, bytearray, memoryview]) -> "ArpPacket":
        fields = _PACKET.unpack(raw)
        op = fields.pop("op")
        try:
            op_enum = ArpOp(op)
        except ValueError as exc:
            raise ProtocolError(f"unknown ARP op {op}") from exc
        return cls(op=op_enum, **fields)

    @classmethod
    def request(cls, sender_mac: MacAddress, sender_ip: IPv4Address, target_ip: IPv4Address) -> "ArpPacket":
        """Who-has ``target_ip``? Tell ``sender_ip``."""
        return cls(
            op=ArpOp.REQUEST,
            sender_mac=sender_mac,
            sender_ip=sender_ip,
            target_mac=MacAddress(b"\x00" * 6),
            target_ip=target_ip,
        )

    @classmethod
    def reply(cls, sender_mac: MacAddress, sender_ip: IPv4Address,
              target_mac: MacAddress, target_ip: IPv4Address) -> "ArpPacket":
        """``sender_ip`` is-at ``sender_mac`` — believed without question."""
        return cls(
            op=ArpOp.REPLY,
            sender_mac=sender_mac,
            sender_ip=sender_ip,
            target_mac=target_mac,
            target_ip=target_ip,
        )


class ArpTable:
    """A neighbour cache with entry aging.

    Notably, replies overwrite existing entries unconditionally — the
    behaviour ARP-cache-poisoning (the wired MITM baseline in E-WIRED)
    exploits.
    """

    def __init__(self, ttl_s: float = 600.0) -> None:
        self.ttl_s = ttl_s
        self._entries: dict[IPv4Address, tuple[MacAddress, float]] = {}

    def learn(self, ip: IPv4Address, mac: MacAddress, now: float) -> None:
        m = instruments().metrics
        if m is not None:
            m.incr("arp.learned")
            prior = self._entries.get(ip)
            if prior is not None and prior[0] != mac:
                # The unconditional-overwrite behaviour poisoning exploits.
                m.incr("arp.overwrites")
        self._entries[ip] = (mac, now + self.ttl_s)

    def lookup(self, ip: IPv4Address, now: float) -> Optional[MacAddress]:
        entry = self._entries.get(ip)
        if entry is None:
            m = instruments().metrics
            if m is not None:
                m.incr("arp.lookup_misses")
            return None
        mac, expiry = entry
        if now >= expiry:
            del self._entries[ip]
            return None
        return mac

    def flush(self) -> None:
        self._entries.clear()

    def entries(self, now: float) -> dict[IPv4Address, MacAddress]:
        """Live entries (expired ones pruned)."""
        self._entries = {ip: e for ip, e in self._entries.items() if e[1] > now}
        return {ip: mac for ip, (mac, _) in self._entries.items()}

    def __len__(self) -> int:
        return len(self._entries)
