"""In-path traffic tampering from a forwarding position.

Once an attacker *is* the path — a hostile hotspot's gateway (§1.3.2),
a compromised legitimate gateway (§1.2's third wired MITM), or the
rogue bridge itself — tampering is a hook on the forwarding function.
:class:`InPathTamperer` is that hook, with two modes:

* ``replace``: length-preserving byte substitution in matching TCP
  payloads (how the hotspot injects exploit script into §5.1's pages);
* ``corrupt``: flip bits in matching TCP payloads — what a rogue can
  do to traffic it cannot read, e.g. a VPN's port-22 stream.  The §5
  countermeasure's integrity layer turns this from silent compromise
  into a detected failure (E2E-tested fail-closed behaviour).

Length preservation in ``replace`` mode is not cosmetic: an in-path
rewriter that changes segment lengths desynchronizes the endpoints'
sequence numbers (netsed avoids this only because it *terminates* the
TCP connection instead of rewriting in flight).
"""

from __future__ import annotations

from typing import Optional

from repro.hosts.host import Host
from repro.netstack.ipv4 import PROTO_TCP, IPv4Packet
from repro.netstack.tcp import TcpSegment
from repro.sim.errors import ReproError

__all__ = ["InPathTamperer", "compromise_gateway"]


class InPathTamperer:
    """Rewrites or corrupts TCP payloads crossing a forwarding host.

    Parameters
    ----------
    host:
        The in-path box (gateway, rogue bridge, hotspot gateway).
    rules:
        ``(old, new)`` byte pairs for ``replace`` mode; ``new`` is
        padded/trimmed to ``len(old)``.
    src_port / dst_port:
        Match direction: e.g. ``src_port=80`` tampers HTTP responses,
        ``dst_port=22`` corrupts client→server SSH traffic.
    mode:
        ``"replace"`` or ``"corrupt"``.
    corrupt_nth:
        In corrupt mode, damage every Nth matching payload (1 = all).
    """

    def __init__(
        self,
        host: Host,
        *,
        rules: Optional[list[tuple[bytes, bytes]]] = None,
        src_port: Optional[int] = None,
        dst_port: Optional[int] = None,
        mode: str = "replace",
        corrupt_nth: int = 1,
    ) -> None:
        if mode not in ("replace", "corrupt"):
            raise ValueError("mode must be 'replace' or 'corrupt'")
        if mode == "replace" and not rules:
            raise ValueError("replace mode needs rules")
        self.host = host
        self.rules = list(rules or [])
        self.src_port = src_port
        self.dst_port = dst_port
        self.mode = mode
        self.corrupt_nth = max(1, corrupt_nth)
        self.tampered = 0
        self._matched = 0
        self._original_receive = None
        self.active = False

    def install(self) -> "InPathTamperer":
        if self.active:
            return self
        self._original_receive = self.host.receive_ip

        def tampering_receive(packet: IPv4Packet, iface) -> None:
            self._original_receive(self._maybe_tamper(packet), iface)

        self.host.receive_ip = tampering_receive  # type: ignore[method-assign]
        self.active = True
        return self

    def remove(self) -> None:
        if self.active and self._original_receive is not None:
            self.host.receive_ip = self._original_receive  # type: ignore[method-assign]
            self.active = False

    # ------------------------------------------------------------------
    def _maybe_tamper(self, packet: IPv4Packet) -> IPv4Packet:
        if packet.proto != PROTO_TCP:
            return packet
        try:
            segment = TcpSegment.from_bytes(packet.payload, packet.src,
                                            packet.dst, verify_checksum=False)
        except ReproError:
            return packet
        if not segment.payload:
            return packet
        if self.src_port is not None and segment.src_port != self.src_port:
            return packet
        if self.dst_port is not None and segment.dst_port != self.dst_port:
            return packet
        self._matched += 1
        payload = segment.payload
        if self.mode == "replace":
            changed = False
            for old, new in self.rules:
                if old in payload:
                    payload = payload.replace(
                        old, new.ljust(len(old))[: len(old)])
                    changed = True
            if not changed:
                return packet
        else:  # corrupt
            if self._matched % self.corrupt_nth != 0:
                return packet
            mid = len(payload) // 2
            payload = payload[:mid] + bytes([payload[mid] ^ 0xFF]) + payload[mid + 1:]
        self.tampered += 1
        self.host.sim.trace.emit("tamper.hit", self.host.name,
                                 mode=self.mode, dst=str(packet.dst))
        new_segment = TcpSegment(
            src_port=segment.src_port, dst_port=segment.dst_port,
            seq=segment.seq, ack=segment.ack, flags=segment.flags,
            window=segment.window, payload=payload, urgent=segment.urgent)
        return packet.with_payload(new_segment.to_bytes(packet.src, packet.dst))


def compromise_gateway(router: Host, *, rules: list[tuple[bytes, bytes]],
                       src_port: int = 80) -> InPathTamperer:
    """§1.2's third wired MITM: "compromise a valid gateway machine".

    Installs a response-rewriting tamperer on a legitimate router —
    no spoofing needed; the attacker owns the path outright.
    """
    tamperer = InPathTamperer(router, rules=rules, src_port=src_port,
                              mode="replace")
    tamperer.install()
    router.sim.trace.emit("gateway.compromised", router.name)
    return tamperer
