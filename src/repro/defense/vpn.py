"""PPP-over-SSH VPN — the paper's solution (§5).

"The solution to this problem is to require all traffic to pass
through a VPN to a trusted, secure, wired network. ... For testing
purposes we have utilized a PPP through SSH VPN as described in
Building Linux Virtual Private Networks."

Architecture, mirroring that book's recipe:

* an SSH-like encrypted transport over TCP (port 22): Diffie–Hellman
  key exchange **authenticated by a pre-established shared secret**
  (§5.2 requirements 1–2 — the client refuses endpoints it has no
  out-of-band credential for, so a rogue cannot substitute itself),
  RC4 record encryption, HMAC-SHA1 record integrity with replay
  protection;
* PPP framing inside the transport, carrying the client's IP packets;
* a ``ppp0`` TUN device on the client that *takes over the default
  route* (§5.2 requirement 4: "must handle all client traffic");
* a server on the trusted wired network (§5.2 requirement 3) that
  decapsulates, forwards, and NATs.

The §5.3 drawback is inherited faithfully: the transport is TCP, so
tunnelled UDP rides a reliable stream — E-VPNOH measures the damage.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass
from typing import Callable, Optional

from repro.crypto.dh import DH_GROUP_1536, DhGroup, DiffieHellman, derive_key
from repro.crypto.keystore import KeyStore
from repro.crypto.rc4 import RC4
from repro.hosts.host import Host
from repro.hosts.nic import TunInterface
from repro.netstack.addressing import IPv4Address, Network
from repro.netstack.ipv4 import IPv4Packet
from repro.netstack.routing import Route
from repro.netstack.tcp import TcpConnection
from repro.obs.lineage import flight_recorder
from repro.obs.runtime import obs_metrics
from repro.sim.errors import ConfigurationError, ProtocolError

__all__ = ["VpnClient", "VpnServer", "SshRecordLayer"]

VPN_PORT = 22
MAC_LEN = 20
PPP_PROTO_IP = 0x0021

# Handshake/record message types.
_MSG_CLIENT_HELLO = 1
_MSG_SERVER_HELLO = 2
_MSG_CLIENT_AUTH = 3
_MSG_CONFIG = 4
_MSG_DATA = 5


def _frame(msg_type: int, payload: bytes) -> bytes:
    return struct.pack(">IB", len(payload) + 1, msg_type) + payload


class _FrameBuffer:
    """Reassemble length-prefixed frames from a TCP byte stream."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        self._buf.extend(data)
        frames = []
        while len(self._buf) >= 4:
            (length,) = struct.unpack_from(">I", self._buf, 0)
            if length < 1 or length > 1 << 20:
                raise ProtocolError("bad VPN frame length")
            if len(self._buf) < 4 + length:
                break
            msg_type = self._buf[4]
            payload = bytes(self._buf[5:4 + length])
            del self._buf[:4 + length]
            frames.append((msg_type, payload))
        return frames


class SshRecordLayer:
    """Encrypted, authenticated, replay-protected records (one direction pair)."""

    def __init__(self, enc_key: bytes, dec_key: bytes,
                 mac_tx_key: bytes, mac_rx_key: bytes) -> None:
        self._tx_cipher = RC4(enc_key)
        self._rx_cipher = RC4(dec_key)
        self._mac_tx_key = mac_tx_key
        self._mac_rx_key = mac_rx_key
        self._tx_seq = 0
        self._rx_seq = 0
        self.integrity_failures = 0
        self.replays_dropped = 0

    def seal(self, plaintext: bytes) -> bytes:
        m = obs_metrics()
        if m is not None:
            m.incr("vpn.records_sealed")
        seq = struct.pack(">I", self._tx_seq)
        self._tx_seq += 1
        ciphertext = self._tx_cipher.crypt(plaintext)
        mac = hmac.digest(self._mac_tx_key, seq + ciphertext, "sha1")
        return seq + ciphertext + mac

    def open(self, record: bytes) -> Optional[bytes]:
        """Verify and decrypt; None on tamper/replay (record dropped).

        Note the stream-cipher subtlety: RC4 state advances per record,
        so a dropped record would desynchronize.  The transport is TCP
        (reliable, ordered), so records only arrive intact and in
        order unless an on-path attacker modified them — in which case
        the session is torn down (as real SSH does on MAC failure).
        """
        m = obs_metrics()
        if len(record) < 4 + MAC_LEN:
            self.integrity_failures += 1
            if m is not None:
                m.incr("vpn.hmac_failures")
            return None
        seq_bytes, ciphertext, mac = record[:4], record[4:-MAC_LEN], record[-MAC_LEN:]
        expected = hmac.digest(self._mac_rx_key, seq_bytes + ciphertext, "sha1")
        if not hmac.compare_digest(expected, mac):
            self.integrity_failures += 1
            if m is not None:
                m.incr("vpn.hmac_failures")
            return None
        (seq,) = struct.unpack(">I", seq_bytes)
        if seq != self._rx_seq:
            self.replays_dropped += 1
            if m is not None:
                m.incr("vpn.replays_dropped")
            return None
        self._rx_seq += 1
        if m is not None:
            m.incr("vpn.records_opened")
        return self._rx_cipher.crypt(ciphertext)


def _derive_record_layer(shared: bytes, transcript: bytes, is_client: bool) -> SshRecordLayer:
    session_id = hashlib.sha1(transcript).digest()
    c2s_enc = derive_key(shared, "enc-c2s", 16, session_id)
    s2c_enc = derive_key(shared, "enc-s2c", 16, session_id)
    c2s_mac = derive_key(shared, "mac-c2s", 20, session_id)
    s2c_mac = derive_key(shared, "mac-s2c", 20, session_id)
    if is_client:
        return SshRecordLayer(c2s_enc, s2c_enc, c2s_mac, s2c_mac)
    return SshRecordLayer(s2c_enc, c2s_enc, s2c_mac, c2s_mac)


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------

class VpnClient:
    """The roaming client's end: SSH session + ppp0 + default route."""

    #: Delay before an auto-reconnect attempt after a torn-down session.
    RECONNECT_DELAY_S = 2.0

    def __init__(
        self,
        host: Host,
        keystore: KeyStore,
        server_name: str,
        server_ip: "IPv4Address | str",
        *,
        server_port: int = VPN_PORT,
        group: DhGroup = DH_GROUP_1536,
        mtu: int = 1400,
        auto_reconnect: bool = False,
    ) -> None:
        self.host = host
        self.keystore = keystore
        self.server_name = server_name
        self.server_ip = IPv4Address(server_ip)
        self.server_port = server_port
        self.group = group
        self.tun = TunInterface("ppp0", mtu=mtu)
        host.add_interface(self.tun)
        self.tun.on_transmit = self._tun_transmit
        self._conn: Optional[TcpConnection] = None
        self._records: Optional[SshRecordLayer] = None
        self._frames = _FrameBuffer()
        self._dh: Optional[DiffieHellman] = None
        self._psk: Optional[bytes] = None
        self._transcript = b""
        self.connected = False
        self.on_connected: Optional[Callable[[], None]] = None
        self._saved_defaults: list = []
        self.auto_reconnect = auto_reconnect
        self._want_connection = False
        self._reconnect_pending = False
        # counters
        self.packets_tunnelled = 0
        self.packets_received = 0
        self.reconnects = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Open the tunnel.  Raises if no trustworthy credential exists —
        the §5.2 rule that VPN arrangements happen out of band."""
        self._want_connection = True
        self._frames = _FrameBuffer()
        if self._conn is not None:
            # Detach the stale transport so its late close events can't
            # tear down the session we are about to build.
            self._conn.on_data = None
            self._conn.on_close = None
            self._conn.on_reset = None
            self._conn = None
        cred = self.keystore.require(self.server_name, trusted_only=True)
        self._psk = cred.secret
        self._dh = DiffieHellman(self.group, self.host.sim.rng.substream(
            f"vpn.client.{self.host.name}"))
        # Pin the server route via the current default before we steal it.
        default = self.host.routing.lookup(self.server_ip)
        if default is None:
            raise ConfigurationError("no route to VPN server")
        self.host.routing.add_host(self.server_ip, default.interface, default.gateway)
        self._conn = self.host.tcp_connect(self.server_ip, self.server_port)
        self._conn.on_established = self._send_hello
        self._conn.on_data = self._on_tcp_data
        self._conn.on_close = self._on_transport_close
        self._conn.on_reset = self._on_transport_close

    def _send_hello(self) -> None:
        assert self._dh is not None
        name_raw = self.host.name.encode("utf-8")
        pub = self._dh.public.to_bytes((self.group.p.bit_length() + 7) // 8, "big")
        payload = struct.pack(">H", len(name_raw)) + name_raw + pub
        self._transcript = payload
        self._conn.send(_frame(_MSG_CLIENT_HELLO, payload))

    def _on_tcp_data(self, data: bytes) -> None:
        try:
            frames = self._frames.feed(data)
        except ProtocolError:
            self._fail()
            return
        for msg_type, payload in frames:
            self._handle_frame(msg_type, payload)

    def _handle_frame(self, msg_type: int, payload: bytes) -> None:
        if msg_type == _MSG_SERVER_HELLO and not self.connected:
            self._on_server_hello(payload)
        elif msg_type == _MSG_CONFIG and self._records is not None:
            self._on_config(payload)
        elif msg_type == _MSG_DATA and self._records is not None:
            self._on_data_record(payload)

    def _on_server_hello(self, payload: bytes) -> None:
        assert self._dh is not None and self._psk is not None
        pub_len = (self.group.p.bit_length() + 7) // 8
        if len(payload) < pub_len + MAC_LEN:
            self._fail()
            return
        server_pub = int.from_bytes(payload[:pub_len], "big")
        tag = payload[pub_len:pub_len + MAC_LEN]
        transcript = self._transcript + payload[:pub_len]
        expected = hmac.digest(self._psk, b"server" + transcript, "sha1")
        if not hmac.compare_digest(tag, expected):
            # An impostor endpoint (e.g. a rogue answering for the VPN
            # address) cannot produce this tag: no shared secret.
            self.host.sim.trace.emit("vpn.server_auth_failed", self.host.name,
                                     server=self.server_name)
            self._fail()
            return
        try:
            shared = self._dh.shared_secret(server_pub)
        except ValueError:
            self._fail()
            return
        self._records = _derive_record_layer(shared, transcript, is_client=True)
        client_tag = hmac.digest(self._psk, b"client" + transcript, "sha1")
        self._conn.send(_frame(_MSG_CLIENT_AUTH, client_tag))

    def _on_config(self, payload: bytes) -> None:
        plain = self._records.open(payload)
        if plain is None or len(plain) < 8:
            self._fail()
            return
        inner_ip = IPv4Address(plain[:4])
        peer_ip = IPv4Address(plain[4:8])
        self.tun.configure_p2p(inner_ip, peer_ip)
        self._take_default_route()
        self.connected = True
        self.host.sim.trace.emit("vpn.connected", self.host.name,
                                 inner_ip=str(inner_ip), server=self.server_name)
        if self.on_connected is not None:
            self.on_connected()

    def _take_default_route(self) -> None:
        """§5.2 requirement 4: *all* traffic into the tunnel."""
        default_net = Network("0.0.0.0", 0)
        for route in list(self.host.routing.routes()):
            if route.network.prefix_len == 0:
                self.host.routing.remove(route.network)
                self._saved_defaults.append(route)
        self.host.routing.add(Route(network=default_net, interface="ppp0"))

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def _tun_transmit(self, packet: IPv4Packet) -> None:
        if not self.connected or self._records is None or self._conn is None:
            return
        self.packets_tunnelled += 1
        rec = flight_recorder()
        if rec is not None and rec.current() is not None:
            rec.hop("vpn", "encap", host=self.host.name,
                    t=self.host.sim.now, dst=str(packet.dst),
                    bytes=len(packet.payload))
        ppp = struct.pack(">H", PPP_PROTO_IP) + packet.to_bytes()
        self._conn.send(_frame(_MSG_DATA, self._records.seal(ppp)))

    def _on_data_record(self, payload: bytes) -> None:
        plain = self._records.open(payload)
        if plain is None:
            self.host.sim.trace.emit("vpn.integrity_fail", self.host.name)
            self._fail()  # SSH semantics: MAC failure kills the session
            return
        if len(plain) < 2 or struct.unpack(">H", plain[:2])[0] != PPP_PROTO_IP:
            return
        try:
            packet = IPv4Packet.from_bytes(plain[2:])
        except ProtocolError:
            return
        self.packets_received += 1
        rec = flight_recorder()
        if rec is not None and rec.current() is not None:
            rec.hop("vpn", "decap", host=self.host.name,
                    t=self.host.sim.now, src=str(packet.src),
                    dst=str(packet.dst), bytes=len(packet.payload))
        self.tun.inject(packet)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------

    def _fail(self) -> None:
        """Internal failure teardown: unlike :meth:`disconnect`, keeps
        the connection *intent* so auto-reconnect can retry."""
        if self._conn is not None:
            self._conn.close()
        self._on_transport_close()

    def disconnect(self) -> None:
        """Deliberate teardown; disables any auto-reconnect intent."""
        self._want_connection = False
        if self._conn is not None:
            self._conn.close()
        self._on_transport_close()

    def _on_transport_close(self) -> None:
        had_session = self.connected or self._records is not None
        self.connected = False
        self._records = None
        if had_session:
            # Fail closed: restore the pre-VPN default routes.  Note the
            # trade-off, documented rather than hidden — restoring a
            # direct default re-exposes traffic; a stricter policy would
            # blackhole instead.  Auto-reconnect re-tunnels promptly.
            self.host.routing.remove(Network("0.0.0.0", 0))
            for route in self._saved_defaults:
                self.host.routing.add(route)
            self._saved_defaults.clear()
            self.host.sim.trace.emit("vpn.disconnected", self.host.name)
        if (self.auto_reconnect and self._want_connection
                and not self._reconnect_pending):
            self._reconnect_pending = True
            self.host.sim.schedule(self.RECONNECT_DELAY_S, self._try_reconnect)

    def _try_reconnect(self) -> None:
        self._reconnect_pending = False
        if self.connected or not self._want_connection:
            return
        self.reconnects += 1
        self.host.sim.trace.emit("vpn.reconnect", self.host.name,
                                 attempt=self.reconnects)
        self.connect()

    @property
    def integrity_failures(self) -> int:
        return self._records.integrity_failures if self._records else 0


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------

@dataclass
class _Session:
    name: str
    conn: TcpConnection
    records: Optional[SshRecordLayer]
    frames: _FrameBuffer
    dh: DiffieHellman
    psk: Optional[bytes]
    transcript: bytes
    tun: Optional[TunInterface]
    inner_ip: Optional[IPv4Address]
    authed: bool = False


class VpnServer:
    """The trusted wired endpoint: terminates tunnels, forwards, NATs."""

    def __init__(
        self,
        host: Host,
        keystore: KeyStore,
        *,
        port: int = VPN_PORT,
        inner_network: Network = Network("10.8.0.0/24"),
        nat_ip: Optional["IPv4Address | str"] = None,
        group: DhGroup = DH_GROUP_1536,
    ) -> None:
        self.host = host
        self.keystore = keystore
        self.group = group
        self.inner_network = inner_network
        self._inner_iter = inner_network.hosts()
        self.server_inner_ip = next(self._inner_iter)
        host.ip_forward = True
        if nat_ip is not None:
            from repro.netstack.netfilter import Chain, Rule, TargetSnat
            host.netfilter.append(Chain.POSTROUTING, Rule(
                target=TargetSnat(IPv4Address(nat_ip)),
                src=inner_network,
            ))
        self.listener = host.tcp_listen(port, self._on_connection)
        self.sessions: list[_Session] = []
        self._tun_counter = 0
        self.auth_failures = 0

    def _on_connection(self, conn: TcpConnection) -> None:
        session = _Session(
            name="?", conn=conn, records=None, frames=_FrameBuffer(),
            dh=DiffieHellman(self.group, self.host.sim.rng.substream(
                f"vpn.server.{self.host.name}.{len(self.sessions)}")),
            psk=None, transcript=b"", tun=None, inner_ip=None,
        )
        self.sessions.append(session)
        conn.on_data = lambda data: self._on_tcp_data(session, data)
        conn.on_close = lambda: self._teardown(session)
        conn.on_reset = lambda: self._teardown(session)

    def _on_tcp_data(self, session: _Session, data: bytes) -> None:
        try:
            frames = session.frames.feed(data)
        except ProtocolError:
            session.conn.abort()
            return
        for msg_type, payload in frames:
            if msg_type == _MSG_CLIENT_HELLO and not session.authed:
                self._on_client_hello(session, payload)
            elif msg_type == _MSG_CLIENT_AUTH and not session.authed:
                self._on_client_auth(session, payload)
            elif msg_type == _MSG_DATA and session.authed:
                self._on_data_record(session, payload)

    def _on_client_hello(self, session: _Session, payload: bytes) -> None:
        if len(payload) < 2:
            session.conn.abort()
            return
        (name_len,) = struct.unpack(">H", payload[:2])
        name = payload[2:2 + name_len].decode("utf-8", "replace")
        pub_len = (self.group.p.bit_length() + 7) // 8
        pub_raw = payload[2 + name_len:2 + name_len + pub_len]
        if len(pub_raw) != pub_len:
            session.conn.abort()
            return
        cred = self.keystore.lookup(name)
        if cred is None:
            self.auth_failures += 1
            session.conn.abort()
            return
        session.name = name
        session.psk = cred.secret
        client_pub = int.from_bytes(pub_raw, "big")
        my_pub = session.dh.public.to_bytes(pub_len, "big")
        session.transcript = payload + my_pub
        tag = hmac.digest(session.psk, b"server" + session.transcript, "sha1")
        session.conn.send(_frame(_MSG_SERVER_HELLO, my_pub + tag))
        try:
            shared = session.dh.shared_secret(client_pub)
        except ValueError:
            session.conn.abort()
            return
        session.records = _derive_record_layer(shared, session.transcript,
                                               is_client=False)

    def _on_client_auth(self, session: _Session, payload: bytes) -> None:
        if session.psk is None or session.records is None:
            session.conn.abort()
            return
        expected = hmac.digest(session.psk, b"client" + session.transcript, "sha1")
        if not hmac.compare_digest(payload, expected):
            self.auth_failures += 1
            self.host.sim.trace.emit("vpn.client_auth_failed", self.host.name,
                                     client=session.name)
            session.conn.abort()
            return
        session.authed = True
        # Allocate the inner address and the server-side interface.
        session.inner_ip = next(self._inner_iter)
        self._tun_counter += 1
        tun = TunInterface(f"ppp{self._tun_counter}")
        self.host.add_interface(tun)
        tun.configure_p2p(self.server_inner_ip, session.inner_ip)
        tun.on_transmit = lambda packet: self._to_client(session, packet)
        session.tun = tun
        config = session.inner_ip.bytes + self.server_inner_ip.bytes
        session.conn.send(_frame(_MSG_CONFIG, session.records.seal(config)))
        self.host.sim.trace.emit("vpn.session_up", self.host.name,
                                 client=session.name, inner=str(session.inner_ip))

    def _on_data_record(self, session: _Session, payload: bytes) -> None:
        plain = session.records.open(payload)
        if plain is None:
            self.host.sim.trace.emit("vpn.integrity_fail", self.host.name,
                                     client=session.name)
            session.conn.abort()
            return
        if len(plain) < 2 or struct.unpack(">H", plain[:2])[0] != PPP_PROTO_IP:
            return
        try:
            packet = IPv4Packet.from_bytes(plain[2:])
        except ProtocolError:
            return
        if session.tun is not None:
            rec = flight_recorder()
            if rec is not None and rec.current() is not None:
                rec.hop("vpn", "decap", host=self.host.name,
                        t=self.host.sim.now, client=session.name,
                        src=str(packet.src), dst=str(packet.dst))
            session.tun.inject(packet)

    def _to_client(self, session: _Session, packet: IPv4Packet) -> None:
        if session.records is None:
            return
        rec = flight_recorder()
        if rec is not None and rec.current() is not None:
            rec.hop("vpn", "encap", host=self.host.name,
                    t=self.host.sim.now, client=session.name,
                    dst=str(packet.dst), bytes=len(packet.payload))
        ppp = struct.pack(">H", PPP_PROTO_IP) + packet.to_bytes()
        session.conn.send(_frame(_MSG_DATA, session.records.seal(ppp)))

    def _teardown(self, session: _Session) -> None:
        if session in self.sessions:
            self.sessions.remove(session)
        if session.tun is not None and session.inner_ip is not None:
            self.host.routing.remove(Network(str(session.inner_ip), 32))

    def active_sessions(self) -> int:
        return len([s for s in self.sessions if s.authed])
