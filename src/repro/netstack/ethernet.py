"""Ethernet framing, LLC/SNAP encapsulation, and wired LAN segments.

Two details matter to the paper:

* 802.11 data-frame bodies carry IP/ARP behind an **LLC/SNAP** header
  whose first byte is ``0xAA`` — the known plaintext that lets a
  sniffer recover RC4 keystream byte 0 from every WEP frame
  (:func:`repro.crypto.wep.wep_first_keystream_byte`).
* The wired-vs-wireless comparison (§1.1) turns on switch vs hub vs
  air: "clients are connected to switches and hence the traffic
  between the client and the network is not readily visible to other
  clients."  :class:`Switch` (MAC-learning, unicast isolation) and
  :class:`Hub` (broadcast) let E-WIRED measure exactly that.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.dot11.mac import MacAddress
from repro.obs.runtime import instruments
from repro.sim.errors import ConfigurationError, ProtocolError
from repro.sim.kernel import Simulator
from repro.wire import HeaderSpec, fixed_bytes, u16

__all__ = [
    "ETHERTYPE_ARP",
    "ETHERTYPE_IPV4",
    "EthernetFrame",
    "Hub",
    "LanSegment",
    "Switch",
    "WiredPort",
    "llc_decap",
    "llc_encap",
]

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

# 802.2 LLC (DSAP=SSAP=0xAA SNAP, control 0x03) + SNAP OUI 00:00:00.
LLC_SNAP_PREFIX = b"\xaa\xaa\x03\x00\x00\x00"


def llc_encap(ethertype: int, payload: bytes) -> bytes:
    """Wrap an L3 payload for an 802.11 data-frame body."""
    return LLC_SNAP_PREFIX + struct.pack(">H", ethertype) + payload


def llc_decap(body: bytes) -> tuple[int, bytes]:
    """Split an 802.11 data body into (ethertype, payload)."""
    if len(body) < 8 or body[:6] != LLC_SNAP_PREFIX:
        raise ProtocolError("not an LLC/SNAP encapsulated body")
    (ethertype,) = struct.unpack(">H", body[6:8])
    return ethertype, body[8:]


_HEADER = HeaderSpec(
    "ethernet frame", ">",
    fixed_bytes("dst", 6, enc=lambda m: m.bytes, dec=MacAddress),
    fixed_bytes("src", 6, enc=lambda m: m.bytes, dec=MacAddress),
    u16("ethertype"),
)


@dataclass(frozen=True)
class EthernetFrame:
    """A DIX Ethernet II frame."""

    dst: MacAddress
    src: MacAddress
    ethertype: int
    payload: bytes
    #: Flight-recorder lineage id; stamped (via object.__setattr__ — the
    #: dataclass is frozen) at first transmission while a recorder is
    #: installed.  compare=False keeps frame equality untouched.
    trace_id: Optional[int] = field(default=None, compare=False, repr=False)

    HEADER_LEN = 14

    def to_bytes(self) -> bytes:
        return _HEADER.pack(dst=self.dst, src=self.src, ethertype=self.ethertype) + self.payload

    @classmethod
    def from_bytes(cls, raw: Union[bytes, bytearray, memoryview]) -> "EthernetFrame":
        view = memoryview(raw)
        fields = _HEADER.unpack(view)
        return cls(payload=bytes(view[cls.HEADER_LEN:]), **fields)


class WiredPort:
    """One NIC's attachment to a LAN segment."""

    def __init__(self, name: str, mac: MacAddress, *, promiscuous: bool = False) -> None:
        self.name = name
        self.mac = mac
        self.promiscuous = promiscuous
        self.on_receive: Optional[Callable[[EthernetFrame], None]] = None
        self.segment: Optional["LanSegment"] = None
        self.tx_frames = 0
        self.rx_frames = 0

    def transmit(self, frame: EthernetFrame) -> None:
        if self.segment is None:
            raise ConfigurationError(f"wired port {self.name!r} not attached to a segment")
        self.tx_frames += 1
        rec = instruments().recorder
        if rec is not None:
            if frame.trace_id is None:
                object.__setattr__(
                    frame, "trace_id",
                    rec.begin("ether", self.name, self.segment.sim.now))
            rec.hop("ether", "tx", trace_id=frame.trace_id, host=self.name,
                    t=self.segment.sim.now, src=str(frame.src),
                    dst=str(frame.dst), ethertype=hex(frame.ethertype),
                    bytes=len(frame.payload) + frame.HEADER_LEN)
        self.segment.transmit(self, frame)

    def deliver(self, frame: EthernetFrame) -> None:
        if self.on_receive is None:
            return
        if not self.promiscuous and frame.dst != self.mac and not frame.dst.is_broadcast and not frame.dst.is_multicast:
            return
        self.rx_frames += 1
        rec = instruments().recorder
        if rec is None or frame.trace_id is None:
            self.on_receive(frame)
            return
        # Wire delivery is a *scheduled* event, so the causal context
        # does not survive the hop on the call stack — the frame's own
        # trace_id re-establishes it.
        rec.hop("ether", "rx", trace_id=frame.trace_id, host=self.name,
                t=self.segment.sim.now if self.segment is not None else None)
        with rec.frame_context(frame.trace_id):
            self.on_receive(frame)


class LanSegment:
    """Base class for wired LAN fabrics (hub / switch)."""

    #: Per-hop wire latency; small but nonzero so event ordering is sane.
    LATENCY_S = 5e-6

    def __init__(self, sim: Simulator, name: str = "lan") -> None:
        self.sim = sim
        self.name = name
        self.ports: list[WiredPort] = []

    def attach(self, port: WiredPort) -> WiredPort:
        if port.segment is not None:
            raise ConfigurationError(f"port {port.name!r} already attached")
        port.segment = self
        self.ports.append(port)
        return port

    def detach(self, port: WiredPort) -> None:
        if port in self.ports:
            self.ports.remove(port)
            port.segment = None

    def transmit(self, src_port: WiredPort, frame: EthernetFrame) -> None:
        raise NotImplementedError


class Hub(LanSegment):
    """A shared-medium repeater: every port sees every frame.

    The wired topology in which sniffing *is* easy — used as the
    E-WIRED baseline against which the switch shows its isolation.
    """

    def transmit(self, src_port: WiredPort, frame: EthernetFrame) -> None:
        for port in self.ports:
            if port is src_port:
                continue
            self.sim.schedule(self.LATENCY_S, port.deliver, frame)


class Switch(LanSegment):
    """A learning switch: unicast goes only to the learned port.

    A promiscuous port on a switch sees almost nothing of other
    stations' unicast traffic (only floods) — the paper's §1.1 claim
    that switched wired networks resist casual eavesdropping.
    """

    def __init__(self, sim: Simulator, name: str = "switch") -> None:
        super().__init__(sim, name)
        self._table: dict[MacAddress, WiredPort] = {}
        self.flooded_frames = 0
        self.forwarded_frames = 0

    def transmit(self, src_port: WiredPort, frame: EthernetFrame) -> None:
        # Learn the sender's location.
        self._table[frame.src] = src_port
        if frame.dst.is_broadcast or frame.dst.is_multicast:
            self._flood(src_port, frame)
            return
        out = self._table.get(frame.dst)
        if out is None:
            self._flood(src_port, frame)
        elif out is not src_port:
            self.forwarded_frames += 1
            self.sim.schedule(self.LATENCY_S, out.deliver, frame)

    def _flood(self, src_port: WiredPort, frame: EthernetFrame) -> None:
        self.flooded_frames += 1
        for port in self.ports:
            if port is not src_port:
                self.sim.schedule(self.LATENCY_S, port.deliver, frame)

    def mac_table(self) -> dict[MacAddress, str]:
        """Learned MAC → port-name map."""
        return {mac: port.name for mac, port in self._table.items()}
