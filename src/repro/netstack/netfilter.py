"""A Netfilter/iptables model with connection tracking.

§4.1 of the paper redirects the victim's web traffic with::

    # iptables -t nat -A PREROUTING \\
    #     -p tcp -d Target-IP --dport 80 \\
    #     -j DNAT --to Gateway-IP:10101

This module implements enough of Netfilter to execute that rule
verbatim (see :meth:`repro.hosts.linuxconf.LinuxBox.iptables`): the
five chains, protocol/address/port matching, ACCEPT/DROP/DNAT/
REDIRECT/SNAT targets, and a connection-tracking table so reply
packets are automatically un-NATed — without which the victim's TCP
stack would reject netsed's responses (they would appear to come from
the gateway, not the target web server).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.netstack.addressing import IPv4Address, Network
from repro.netstack.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP, IPv4Packet
from repro.netstack.tcp import TcpSegment
from repro.netstack.udp import UdpDatagram
from repro.obs.runtime import instruments
from repro.sim.errors import ConfigurationError

__all__ = [
    "Chain",
    "ConnTrack",
    "Netfilter",
    "Rule",
    "TargetAccept",
    "TargetDnat",
    "TargetDrop",
    "TargetRedirect",
    "TargetSnat",
    "Verdict",
]

_PROTO_BY_NAME = {"tcp": PROTO_TCP, "udp": PROTO_UDP, "icmp": PROTO_ICMP}
_NAME_BY_PROTO = {v: k for k, v in _PROTO_BY_NAME.items()}


class Chain(enum.Enum):
    PREROUTING = "PREROUTING"
    INPUT = "INPUT"
    FORWARD = "FORWARD"
    OUTPUT = "OUTPUT"
    POSTROUTING = "POSTROUTING"


class Verdict(enum.Enum):
    ACCEPT = "ACCEPT"
    DROP = "DROP"


# ----------------------------------------------------------------------
# targets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TargetAccept:
    def __str__(self) -> str:
        return "ACCEPT"


@dataclass(frozen=True)
class TargetDrop:
    def __str__(self) -> str:
        return "DROP"


@dataclass(frozen=True)
class TargetDnat:
    """Rewrite destination — the §4.1 redirect's ``-j DNAT --to ip:port``."""

    to_ip: IPv4Address
    to_port: Optional[int] = None

    def __str__(self) -> str:
        port = f":{self.to_port}" if self.to_port is not None else ""
        return f"DNAT --to {self.to_ip}{port}"


@dataclass(frozen=True)
class TargetRedirect:
    """DNAT to the receiving host itself (``-j REDIRECT --to-port``)."""

    to_port: int

    def __str__(self) -> str:
        return f"REDIRECT --to-port {self.to_port}"


@dataclass(frozen=True)
class TargetSnat:
    """Rewrite source — used by the VPN server to NAT tunnelled clients."""

    to_ip: IPv4Address

    def __str__(self) -> str:
        return f"SNAT --to {self.to_ip}"


Target = TargetAccept | TargetDrop | TargetDnat | TargetRedirect | TargetSnat


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """One iptables rule: match criteria plus a target.

    Unset criteria match anything, as in iptables.
    """

    target: Target
    proto: Optional[str] = None        # "tcp" | "udp" | "icmp"
    src: Optional[Network] = None
    dst: Optional[Network] = None
    sport: Optional[int] = None
    dport: Optional[int] = None
    in_iface: Optional[str] = None
    out_iface: Optional[str] = None

    def matches(self, packet: IPv4Packet, *, in_iface: Optional[str],
                out_iface: Optional[str]) -> bool:
        if self.proto is not None and packet.proto != _PROTO_BY_NAME[self.proto]:
            return False
        if self.src is not None and packet.src not in self.src:
            return False
        if self.dst is not None and packet.dst not in self.dst:
            return False
        if self.in_iface is not None and in_iface != self.in_iface:
            return False
        if self.out_iface is not None and out_iface != self.out_iface:
            return False
        if self.sport is not None or self.dport is not None:
            ports = _ports_of(packet)
            if ports is None:
                return False
            sport, dport = ports
            if self.sport is not None and sport != self.sport:
                return False
            if self.dport is not None and dport != self.dport:
                return False
        return True

    def __str__(self) -> str:
        parts = []
        if self.proto:
            parts.append(f"-p {self.proto}")
        if self.src:
            parts.append(f"-s {self.src}")
        if self.dst:
            parts.append(f"-d {self.dst}")
        if self.sport is not None:
            parts.append(f"--sport {self.sport}")
        if self.dport is not None:
            parts.append(f"--dport {self.dport}")
        if self.in_iface:
            parts.append(f"-i {self.in_iface}")
        if self.out_iface:
            parts.append(f"-o {self.out_iface}")
        parts.append(f"-j {self.target}")
        return " ".join(parts)


def _ports_of(packet: IPv4Packet) -> Optional[tuple[int, int]]:
    """(sport, dport) for TCP/UDP; (ident, ident) for ICMP echo.

    ICMP echo flows are tracked by their query identifier, as Linux
    conntrack does — the same field appears in request and reply, so it
    fills both "port" slots.
    """
    if packet.proto == PROTO_ICMP:
        if len(packet.payload) >= 8 and packet.payload[0] in (0, 8):
            ident = int.from_bytes(packet.payload[4:6], "big")
            return (ident, ident)
        return None
    if packet.proto not in (PROTO_TCP, PROTO_UDP) or len(packet.payload) < 4:
        return None
    return (
        int.from_bytes(packet.payload[0:2], "big"),
        int.from_bytes(packet.payload[2:4], "big"),
    )


def _rewrite(packet: IPv4Packet, *, src: Optional[IPv4Address] = None,
             sport: Optional[int] = None, dst: Optional[IPv4Address] = None,
             dport: Optional[int] = None) -> IPv4Packet:
    """Rebuild a packet with translated addresses/ports and fixed checksums."""
    new_src = src if src is not None else packet.src
    new_dst = dst if dst is not None else packet.dst
    payload = packet.payload
    if packet.proto == PROTO_TCP:
        seg = TcpSegment.from_bytes(payload, packet.src, packet.dst, verify_checksum=False)
        seg = TcpSegment(
            src_port=sport if sport is not None else seg.src_port,
            dst_port=dport if dport is not None else seg.dst_port,
            seq=seg.seq, ack=seg.ack, flags=seg.flags, window=seg.window,
            payload=seg.payload, urgent=seg.urgent,
        )
        payload = seg.to_bytes(new_src, new_dst)
    elif packet.proto == PROTO_UDP:
        dgram = UdpDatagram.from_bytes(payload, packet.src, packet.dst, verify_checksum=False)
        dgram = UdpDatagram(
            src_port=sport if sport is not None else dgram.src_port,
            dst_port=dport if dport is not None else dgram.dst_port,
            payload=dgram.payload,
        )
        payload = dgram.to_bytes(new_src, new_dst)
    elif packet.proto == PROTO_ICMP and (sport is not None or dport is not None):
        # Rewrite the echo identifier (ICMP NAT).
        from repro.netstack.icmp import IcmpMessage
        msg = IcmpMessage.from_bytes(payload)
        new_ident = sport if sport is not None else dport
        new_rest = ((new_ident & 0xFFFF) << 16) | (msg.rest & 0xFFFF)
        payload = IcmpMessage(msg.icmp_type, msg.code, new_rest, msg.payload).to_bytes()
    return IPv4Packet(src=new_src, dst=new_dst, proto=packet.proto,
                      payload=payload, ttl=packet.ttl, ident=packet.ident, tos=packet.tos)


# ----------------------------------------------------------------------
# connection tracking
# ----------------------------------------------------------------------

_FlowKey = tuple[int, IPv4Address, int, IPv4Address, int]


@dataclass
class _NatEntry:
    """Translation state for one tracked flow."""

    fwd_key: _FlowKey
    rev_key: _FlowKey
    # Forward-direction rewrite (applied to packets matching fwd_key).
    fwd_src: Optional[IPv4Address]
    fwd_sport: Optional[int]
    fwd_dst: Optional[IPv4Address]
    fwd_dport: Optional[int]
    # Reverse-direction rewrite (applied to packets matching rev_key).
    rev_src: Optional[IPv4Address]
    rev_sport: Optional[int]
    rev_dst: Optional[IPv4Address]
    rev_dport: Optional[int]
    last_used: float = 0.0


class ConnTrack:
    """NAT connection tracking: sticky per-flow translations, both ways."""

    TTL_S = 300.0

    def __init__(self) -> None:
        self._by_key: dict[_FlowKey, tuple[_NatEntry, bool]] = {}
        self._next_nat_port = 33000

    def allocate_port(self) -> int:
        port = self._next_nat_port
        self._next_nat_port += 1
        if self._next_nat_port > 60000:
            self._next_nat_port = 33000
        return port

    @staticmethod
    def flow_key(packet: IPv4Packet) -> Optional[_FlowKey]:
        ports = _ports_of(packet)
        if ports is None:
            return None
        return (packet.proto, packet.src, ports[0], packet.dst, ports[1])

    def add(self, entry: _NatEntry, now: float) -> None:
        entry.last_used = now
        self._by_key[entry.fwd_key] = (entry, True)
        self._by_key[entry.rev_key] = (entry, False)

    def translate(self, packet: IPv4Packet, now: float) -> Optional[IPv4Packet]:
        """Apply an existing translation, if this packet belongs to a flow."""
        key = self.flow_key(packet)
        if key is None:
            return None
        hit = self._by_key.get(key)
        if hit is None:
            return None
        entry, forward = hit
        if now - entry.last_used > self.TTL_S:
            self._by_key.pop(entry.fwd_key, None)
            self._by_key.pop(entry.rev_key, None)
            return None
        entry.last_used = now
        if forward:
            return _rewrite(packet, src=entry.fwd_src, sport=entry.fwd_sport,
                            dst=entry.fwd_dst, dport=entry.fwd_dport)
        return _rewrite(packet, src=entry.rev_src, sport=entry.rev_sport,
                        dst=entry.rev_dst, dport=entry.rev_dport)

    def track_dnat(self, packet: IPv4Packet, new_dst: IPv4Address,
                   new_dport: Optional[int], now: float) -> IPv4Packet:
        """Create a DNAT entry for a fresh flow and translate the packet."""
        key = self.flow_key(packet)
        if key is None:  # no ports (e.g. ICMP): translate statelessly
            return _rewrite(packet, dst=new_dst, dport=new_dport)
        proto, src, sport, dst, dport = key
        eff_dport = new_dport if new_dport is not None else dport
        entry = _NatEntry(
            fwd_key=key,
            rev_key=(proto, new_dst, eff_dport, src, sport),
            fwd_src=None, fwd_sport=None, fwd_dst=new_dst, fwd_dport=new_dport,
            rev_src=dst, rev_sport=dport, rev_dst=None, rev_dport=None,
        )
        self.add(entry, now)
        return _rewrite(packet, dst=new_dst, dport=new_dport)

    def track_snat(self, packet: IPv4Packet, new_src: IPv4Address, now: float) -> IPv4Packet:
        """Create an SNAT entry (with port allocation) and translate."""
        key = self.flow_key(packet)
        if key is None:
            return _rewrite(packet, src=new_src)
        proto, src, sport, dst, dport = key
        nat_port = self.allocate_port()
        if proto == PROTO_ICMP:
            # Echo ident is symmetric: both "port" slots carry it, and
            # the reply comes back with the NAT-rewritten ident.
            entry = _NatEntry(
                fwd_key=key,
                rev_key=(proto, dst, nat_port, new_src, nat_port),
                fwd_src=new_src, fwd_sport=nat_port, fwd_dst=None, fwd_dport=None,
                rev_src=None, rev_sport=None, rev_dst=src, rev_dport=sport,
            )
        else:
            entry = _NatEntry(
                fwd_key=key,
                rev_key=(proto, dst, dport, new_src, nat_port),
                fwd_src=new_src, fwd_sport=nat_port, fwd_dst=None, fwd_dport=None,
                rev_src=None, rev_sport=None, rev_dst=src, rev_dport=sport,
            )
        self.add(entry, now)
        return _rewrite(packet, src=new_src, sport=nat_port)

    def __len__(self) -> int:
        # Each flow is indexed under two keys.
        return len({id(e) for e, _ in self._by_key.values()})


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------

class Netfilter:
    """Per-host chains plus conntrack, traversed by the host's IP path."""

    def __init__(self) -> None:
        self.chains: dict[Chain, list[Rule]] = {chain: [] for chain in Chain}
        self.conntrack = ConnTrack()
        self.counters: dict[Chain, int] = {chain: 0 for chain in Chain}
        self.dropped = 0

    def append(self, chain: Chain, rule: Rule) -> None:
        """``iptables -A`` equivalent."""
        nat_targets = (TargetDnat, TargetRedirect, TargetSnat)
        if isinstance(rule.target, TargetSnat) and chain is not Chain.POSTROUTING:
            raise ConfigurationError("SNAT is only valid in POSTROUTING")
        if isinstance(rule.target, (TargetDnat, TargetRedirect)) and chain not in (
            Chain.PREROUTING, Chain.OUTPUT
        ):
            raise ConfigurationError("DNAT/REDIRECT only valid in PREROUTING/OUTPUT")
        self.chains[chain].append(rule)

    def flush(self, chain: Optional[Chain] = None) -> None:
        if chain is None:
            for c in Chain:
                self.chains[c].clear()
        else:
            self.chains[chain].clear()

    def process(
        self,
        chain: Chain,
        packet: IPv4Packet,
        now: float,
        *,
        in_iface: Optional[str] = None,
        out_iface: Optional[str] = None,
        local_ip: Optional[IPv4Address] = None,
        nat: bool = True,
    ) -> tuple[Verdict, IPv4Packet, bool]:
        """Run a packet through one chain; returns (verdict, packet', natted).

        NAT semantics follow Linux: conntrack translations for
        established flows apply before the rule list, and a packet is
        NAT-translated **at most once per traversal** of the host — the
        caller passes ``nat=False`` for later chains once a translation
        has happened (otherwise a forwarded SNAT flow would be
        re-translated with a fresh port on every packet, breaking the
        server-side connection lookup).
        """
        self.counters[chain] += 1
        natted = False
        m = instruments().metrics
        if m is not None:
            m.incr("netfilter.traversals")
        if nat and chain in (Chain.PREROUTING, Chain.OUTPUT, Chain.POSTROUTING):
            translated = self.conntrack.translate(packet, now)
            if translated is not None:
                if m is not None:
                    m.incr("netfilter.conntrack_hits")
                self._record_nat_hop(chain, "conntrack", packet, translated, now)
                return Verdict.ACCEPT, translated, True
        for rule in self.chains[chain]:
            if not rule.matches(packet, in_iface=in_iface, out_iface=out_iface):
                continue
            target = rule.target
            if isinstance(target, TargetAccept):
                return Verdict.ACCEPT, packet, natted
            if isinstance(target, TargetDrop):
                self.dropped += 1
                if m is not None:
                    m.incr("netfilter.drops")
                return Verdict.DROP, packet, natted
            if isinstance(target, (TargetDnat, TargetRedirect, TargetSnat)):
                if not nat:
                    continue
                before = packet
                if isinstance(target, TargetDnat):
                    packet = self.conntrack.track_dnat(packet, target.to_ip,
                                                       target.to_port, now)
                    action = "dnat"
                elif isinstance(target, TargetRedirect):
                    if local_ip is None:
                        raise ConfigurationError("REDIRECT needs the local interface IP")
                    packet = self.conntrack.track_dnat(packet, local_ip,
                                                       target.to_port, now)
                    action = "redirect"
                else:
                    packet = self.conntrack.track_snat(packet, target.to_ip, now)
                    action = "snat"
                if m is not None:
                    m.incr("netfilter.snat_hits" if isinstance(target, TargetSnat)
                           else "netfilter.dnat_hits")
                    m.set_gauge("netfilter.conntrack_entries", len(self.conntrack))
                self._record_nat_hop(chain, action, before, packet, now)
                return Verdict.ACCEPT, packet, True
        return Verdict.ACCEPT, packet, natted  # default policy ACCEPT

    @staticmethod
    def _record_nat_hop(chain: Chain, action: str, before: IPv4Packet,
                        after: IPv4Packet, now: float) -> None:
        """Lineage hop for a NAT rewrite (before/after addressing)."""
        rec = instruments().recorder
        if rec is None or rec.current() is None:
            return
        rec.hop("netfilter", action, t=now, chain=chain.value,
                before=f"{before.src}->{before.dst}",
                after=f"{after.src}->{after.dst}")

    def list_rules(self) -> str:
        """``iptables -L``-style dump."""
        lines = []
        for chain in Chain:
            lines.append(f"Chain {chain.value}")
            for rule in self.chains[chain]:
                lines.append(f"  {rule}")
        return "\n".join(lines)
