"""Passive monitor-mode sniffing.

§1.1: "Wireless networks allow clients to sniff other people's
packets."  The sniffer is a radio in monitor mode: it records every
frame in range, on every channel.  Given the WEP key (valid
client, or recovered by Airsnort) it decrypts data frames and
reassembles IP and TCP payloads — everything the victim sends.

It is also the collection front-end for the FMS attack: every
WEP-protected data frame yields an ``(IV, first keystream byte)``
sample via the known LLC/SNAP ``0xAA`` plaintext.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.crypto.wep import WepError, WepKey, wep_decrypt, wep_first_keystream_byte, wep_iv_of
from repro.dot11.capture import CapturedFrame, FrameCapture
from repro.dot11.frames import Dot11Frame, FrameSubtype
from repro.netstack.ethernet import llc_decap, ETHERTYPE_IPV4
from repro.netstack.ipv4 import PROTO_TCP, IPv4Packet
from repro.netstack.tcp import TcpSegment
from repro.radio.medium import Medium, RadioPort
from repro.radio.propagation import Position
from repro.sim.errors import ProtocolError
from repro.sim.kernel import Simulator

__all__ = ["MonitorSniffer", "fms_samples_in"]


def fms_samples_in(
        frames: Iterable[CapturedFrame]) -> Iterator[tuple[bytes, int]]:
    """(IV, keystream byte 0) for every protected data frame in ``frames``."""
    for cap in frames:
        frame = cap.frame
        if frame.subtype is not FrameSubtype.DATA or not frame.protected:
            continue
        try:
            yield wep_iv_of(frame.body), wep_first_keystream_byte(frame.body)
        except WepError:
            continue


class MonitorSniffer:
    """A monitor-mode radio with decode helpers."""

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        position: Position,
        *,
        name: str = "sniffer",
        channel: int = 1,
    ) -> None:
        self.sim = sim
        self.port = RadioPort(name=name, position=position, channel=channel,
                              promiscuous=True, any_channel=True)
        self.port.on_receive = self._on_frame
        medium.attach(self.port)
        self.capture = FrameCapture()

    def _on_frame(self, frame: Dot11Frame, rssi: float, channel: int) -> None:
        self.capture.add(CapturedFrame(time=self.sim.now, channel=channel,
                                       rssi_dbm=rssi, frame=frame))

    def stop(self) -> None:
        self.port.enabled = False

    # ------------------------------------------------------------------
    # FMS sample extraction (feeds repro.attacks.airsnort)
    # ------------------------------------------------------------------
    def fms_samples(self) -> Iterator[tuple[bytes, int]]:
        """(IV, keystream byte 0) for every protected data frame seen."""
        return fms_samples_in(self.capture.frames)

    # ------------------------------------------------------------------
    # decryption given a key (valid client, or post-Airsnort)
    # ------------------------------------------------------------------
    def decrypted_payloads(self, key: WepKey) -> Iterator[tuple[CapturedFrame, int, bytes]]:
        """Yield (capture, ethertype, l3 payload) for decryptable data frames."""
        for cap in self.capture.select(subtype=FrameSubtype.DATA):
            body = cap.frame.body
            if cap.frame.protected:
                try:
                    body = wep_decrypt(key, body)
                except WepError:
                    continue
            try:
                ethertype, payload = llc_decap(body)
            except ProtocolError:
                continue
            yield cap, ethertype, payload

    def sniffed_tcp_stream(self, key: Optional[WepKey],
                           src_ip, dst_ip, dst_port: int = 80) -> bytes:
        """Reassemble one direction of a TCP flow from sniffed frames.

        This is the §1.1 privacy failure made concrete: the full HTTP
        conversation of a bystander, recovered from the air.
        """
        chunks: dict[int, bytes] = {}
        for cap in self.capture.select(subtype=FrameSubtype.DATA):
            body = cap.frame.body
            if cap.frame.protected:
                if key is None:
                    continue
                try:
                    body = wep_decrypt(key, body)
                except WepError:
                    continue
            try:
                ethertype, payload = llc_decap(body)
                if ethertype != ETHERTYPE_IPV4:
                    continue
                packet = IPv4Packet.from_bytes(payload)
                if packet.src != src_ip or packet.dst != dst_ip or packet.proto != PROTO_TCP:
                    continue
                segment = TcpSegment.from_bytes(packet.payload, packet.src, packet.dst,
                                                verify_checksum=False)
            except ProtocolError:
                continue
            if segment.dst_port == dst_port and segment.payload:
                chunks.setdefault(segment.seq, segment.payload)
        return b"".join(chunks[k] for k in sorted(chunks))
