"""Every wire decoder, fed arbitrary bytes, returns or raises ``ReproError``.

Decoders sit on the attack surface: a rogue controls every byte a
victim's stack parses.  So each one may accept its input or reject it
with a :class:`~repro.sim.errors.ReproError`, and nothing else — no
``IndexError``, ``struct.error`` or ``ValueError`` escaping from a
short or malformed buffer.  Inputs are random bytes, and the golden
wire vectors the decoder accepts with a few bytes overwritten and the
tail cut at random: random bytes alone rarely reach past a length
check into a fixed-size format's field decoding.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dot11.frames import Dot11Frame, FrameSubtype
from repro.dot11.ies import parse_ies
from repro.dot11.mac import MacAddress
from repro.netstack.addressing import IPv4Address
from repro.netstack.arp import ArpPacket
from repro.netstack.dhcp import DhcpMessage
from repro.netstack.dns import DnsMessage
from repro.netstack.ethernet import EthernetFrame
from repro.netstack.icmp import IcmpMessage
from repro.netstack.ipv4 import IPv4Packet
from repro.netstack.tcp import TcpSegment
from repro.netstack.udp import UdpDatagram
from repro.rsn.ie import CsaIe, RsnIe, VendorIe
from repro.rsn.pmf import Mme
from repro.sim.errors import ReproError
from tests.wire.vectors import build_vectors
from tests.wire.vectors_rsn import build_rsn_vectors

SRC = IPv4Address("10.0.0.1")
DST = IPv4Address("10.0.0.2")
BSSID = MacAddress("aa:bb:cc:dd:00:01")


def _body(subtype: FrameSubtype, raw: bytes) -> Dot11Frame:
    """A management frame of ``subtype`` carrying ``raw`` as its body."""
    return Dot11Frame(subtype, BSSID, BSSID, BSSID, body=raw)


DECODERS = {
    "Dot11Frame.from_bytes": Dot11Frame.from_bytes,
    "Dot11Frame.from_bytes(no fcs)":
        lambda raw: Dot11Frame.from_bytes(raw, with_fcs=False),
    "EthernetFrame.from_bytes": EthernetFrame.from_bytes,
    "ArpPacket.from_bytes": ArpPacket.from_bytes,
    "IPv4Packet.from_bytes": IPv4Packet.from_bytes,
    "IcmpMessage.from_bytes": IcmpMessage.from_bytes,
    "TcpSegment.from_bytes":
        lambda raw: TcpSegment.from_bytes(raw, SRC, DST),
    "TcpSegment.from_bytes(no checksum)":
        lambda raw: TcpSegment.from_bytes(raw, SRC, DST,
                                          verify_checksum=False),
    "UdpDatagram.from_bytes":
        lambda raw: UdpDatagram.from_bytes(raw, SRC, DST),
    "UdpDatagram.from_bytes(no checksum)":
        lambda raw: UdpDatagram.from_bytes(raw, SRC, DST,
                                           verify_checksum=False),
    "DhcpMessage.from_bytes": DhcpMessage.from_bytes,
    "DnsMessage.from_bytes": DnsMessage.from_bytes,
    "parse_ies": parse_ies,
    "RsnIe.parse": RsnIe.parse,
    "CsaIe.parse": CsaIe.parse,
    "VendorIe.parse": VendorIe.parse,
    "Mme.parse": Mme.parse,
    "Dot11Frame.parse_beacon":
        lambda raw: _body(FrameSubtype.BEACON, raw).parse_beacon(),
    "Dot11Frame.parse_auth":
        lambda raw: _body(FrameSubtype.AUTH, raw).parse_auth(),
    "Dot11Frame.parse_assoc_request":
        lambda raw: _body(FrameSubtype.ASSOC_REQ, raw).parse_assoc_request(),
    "Dot11Frame.parse_assoc_response":
        lambda raw: _body(FrameSubtype.ASSOC_RESP, raw).parse_assoc_response(),
    "Dot11Frame.parse_reason":
        lambda raw: _body(FrameSubtype.DEAUTH, raw).parse_reason(),
    "Dot11Frame.parse_trailing_ies":
        lambda raw: _body(FrameSubtype.DEAUTH, raw).parse_trailing_ies(2),
}


def _corpus() -> list[bytes]:
    """Every golden vector's bytes, plus the body of each 802.11 one."""
    raws = [v.encode() for v in build_vectors() + build_rsn_vectors()]
    bodies = []
    for raw in raws:
        for with_fcs in (True, False):
            try:
                bodies.append(Dot11Frame.from_bytes(raw, with_fcs).body)
            except ReproError:
                pass
    return sorted(set(raws + bodies))


CORPUS = _corpus()


def _accepts(decode, raw: bytes) -> bool:
    try:
        decode(raw)
    except ReproError:
        return False
    return True


def _mutate(seed: bytes, edits: list, cut: int) -> bytes:
    raw = bytearray(seed)
    for pos, value in edits:
        if raw:
            raw[pos % len(raw)] = value
    return bytes(raw[:cut])


def _inputs(decode) -> st.SearchStrategy:
    seeds = [raw for raw in CORPUS if _accepts(decode, raw)] or CORPUS
    edits = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
                     max_size=4)
    mutated = st.builds(_mutate, st.sampled_from(seeds), edits,
                        st.integers(0, 400))
    return st.one_of(st.binary(max_size=300), mutated)


INPUTS = {name: _inputs(decode) for name, decode in DECODERS.items()}


@pytest.mark.parametrize("name", sorted(DECODERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_decoder_returns_or_raises_repro_error(name, data):
    raw = data.draw(INPUTS[name], label="raw")
    try:
        DECODERS[name](raw)
    except ReproError:
        pass
