"""An ESP-style UDP-transport tunnel.

The paper's §5.3 notes the PPP-over-SSH prototype's drawback — UDP
inside TCP — and its future work promises "a thorough evaluation of
VPN technologies".  This module is the natural comparator: an
IPsec-ESP-like tunnel over UDP (in the spirit of reference [13],
WAVEsec), where each inner packet rides one datagram.  Loss stays
loss: no head-of-line blocking, no meltdown — measured against the
TCP tunnel by E-VPNOH.

Keying is pre-shared (static SA), as small IPsec deployments of the
era actually ran.  Per-packet: sequence number, RC4 keystream seeded
per packet from (key, seq), HMAC-SHA1 truncated to 12 bytes (RFC 2404
style), replay window.
"""

from __future__ import annotations

import hmac
import struct
from typing import Optional

from repro.crypto.rc4 import RC4
from repro.hosts.host import Host, UdpSocket
from repro.hosts.nic import TunInterface
from repro.netstack.addressing import IPv4Address, Network
from repro.netstack.ipv4 import IPv4Packet
from repro.netstack.routing import Route
from repro.sim.errors import ConfigurationError, ProtocolError

__all__ = ["EspTunnelClient", "EspTunnelServer", "esp_seal", "esp_open"]

ESP_PORT = 4500
TRUNC_MAC = 12


def _packet_key(key: bytes, seq: int) -> bytes:
    return key + struct.pack(">I", seq)


def esp_seal(enc_key: bytes, mac_key: bytes, seq: int, inner: bytes) -> bytes:
    """One ESP-ish datagram: ``seq(4) | ct | mac12``."""
    seq_bytes = struct.pack(">I", seq)
    ciphertext = RC4(_packet_key(enc_key, seq)).crypt(inner)
    mac = hmac.digest(mac_key, seq_bytes + ciphertext, "sha1")[:TRUNC_MAC]
    return seq_bytes + ciphertext + mac


def esp_open(enc_key: bytes, mac_key: bytes, datagram: bytes) -> Optional[tuple[int, bytes]]:
    """Verify/decrypt one datagram; None if forged or malformed."""
    if len(datagram) < 4 + TRUNC_MAC:
        return None
    seq_bytes, ciphertext, mac = (datagram[:4], datagram[4:-TRUNC_MAC],
                                  datagram[-TRUNC_MAC:])
    expected = hmac.digest(mac_key, seq_bytes + ciphertext, "sha1")[:TRUNC_MAC]
    if not hmac.compare_digest(expected, mac):
        return None
    (seq,) = struct.unpack(">I", seq_bytes)
    return seq, RC4(_packet_key(enc_key, seq)).crypt(ciphertext)


class _ReplayWindow:
    """Sliding anti-replay window (RFC 2401 §5-ish, window 64)."""

    SIZE = 64

    def __init__(self) -> None:
        self._top = -1
        self._mask = 0

    def accept(self, seq: int) -> bool:
        if seq > self._top:
            shift = seq - self._top
            self._mask = ((self._mask << shift) | 1) & ((1 << self.SIZE) - 1)
            self._top = seq
            return True
        offset = self._top - seq
        if offset >= self.SIZE:
            return False
        bit = 1 << offset
        if self._mask & bit:
            return False
        self._mask |= bit
        return True


class EspTunnelClient:
    """Client end: a TUN device whose packets ride UDP datagrams."""

    def __init__(self, host: Host, server_ip: "IPv4Address | str", psk: bytes,
                 *, inner_ip: "IPv4Address | str", server_inner_ip: "IPv4Address | str",
                 port: int = ESP_PORT) -> None:
        self.host = host
        self.server_ip = IPv4Address(server_ip)
        self.port = port
        self.enc_key = psk + b"-enc"
        self.mac_key = psk + b"-mac"
        self.tun = TunInterface("esp0")
        host.add_interface(self.tun)
        self.tun.configure_p2p(inner_ip, server_inner_ip)
        self.tun.on_transmit = self._encapsulate
        self.sock: UdpSocket = host.udp_socket()
        self.sock.on_datagram = self._decapsulate
        self._seq = 0
        self._replay = _ReplayWindow()
        self.sent = 0
        self.received = 0
        self.dropped_integrity = 0
        # Routes: pin the server via the existing default, then take over.
        default = host.routing.lookup(self.server_ip)
        if default is None:
            raise ConfigurationError("no route to ESP server")
        host.routing.add_host(self.server_ip, default.interface, default.gateway)
        for route in list(host.routing.routes()):
            if route.network.prefix_len == 0:
                host.routing.remove(route.network)
        host.routing.add(Route(network=Network("0.0.0.0", 0), interface="esp0"))

    def _encapsulate(self, packet: IPv4Packet) -> None:
        self._seq += 1
        self.sent += 1
        datagram = esp_seal(self.enc_key, self.mac_key, self._seq, packet.to_bytes())
        self.sock.sendto(datagram, self.server_ip, self.port)

    def _decapsulate(self, payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
        opened = esp_open(self.enc_key, self.mac_key, payload)
        if opened is None:
            self.dropped_integrity += 1
            return
        seq, inner = opened
        if not self._replay.accept(seq):
            return
        try:
            packet = IPv4Packet.from_bytes(inner)
        except ProtocolError:
            return
        self.received += 1
        self.tun.inject(packet)


class EspTunnelServer:
    """Server end: one static SA per client inner address."""

    def __init__(self, host: Host, psk: bytes, *,
                 server_inner_ip: "IPv4Address | str",
                 nat_ip: Optional["IPv4Address | str"] = None,
                 inner_network: Network = Network("10.9.0.0/24"),
                 port: int = ESP_PORT) -> None:
        self.host = host
        self.enc_key = psk + b"-enc"
        self.mac_key = psk + b"-mac"
        self.port = port
        host.ip_forward = True
        self.sock = host.udp_socket(port)
        self.sock.on_datagram = self._decapsulate
        self._peers: dict[IPv4Address, tuple[IPv4Address, int, TunInterface]] = {}
        self._replay: dict[IPv4Address, _ReplayWindow] = {}
        self._seq = 0
        self.server_inner_ip = IPv4Address(server_inner_ip)
        self.dropped_integrity = 0
        if nat_ip is not None:
            from repro.netstack.netfilter import Chain, Rule, TargetSnat
            host.netfilter.append(Chain.POSTROUTING, Rule(
                target=TargetSnat(IPv4Address(nat_ip)), src=inner_network))

    def _decapsulate(self, payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
        opened = esp_open(self.enc_key, self.mac_key, payload)
        if opened is None:
            self.dropped_integrity += 1
            return
        seq, inner = opened
        try:
            packet = IPv4Packet.from_bytes(inner)
        except ProtocolError:
            return
        peer_inner = packet.src
        if peer_inner not in self._peers:
            tun = TunInterface(f"esps{len(self._peers)}")
            self.host.add_interface(tun)
            tun.configure_p2p(self.server_inner_ip, peer_inner)
            tun.on_transmit = lambda pkt, ip=src_ip, port=src_port: self._to_peer(pkt, ip, port)
            self._peers[peer_inner] = (src_ip, src_port, tun)
            self._replay[peer_inner] = _ReplayWindow()
        if not self._replay[peer_inner].accept(seq):
            return
        _, _, tun = self._peers[peer_inner]
        tun.inject(packet)

    def _to_peer(self, packet: IPv4Packet, outer_ip: IPv4Address, outer_port: int) -> None:
        self._seq += 1
        datagram = esp_seal(self.enc_key, self.mac_key, self._seq, packet.to_bytes())
        self.sock.sendto(datagram, outer_ip, outer_port)
