"""802.11 management-frame information elements (IEs).

Management frame bodies are a fixed-field prefix followed by a list of
TLV information elements.  The rogue AP's whole trick is that these
are *self-asserted*: the SSID element in its beacon says ``CORP``
because the attacker typed ``CORP``, and no element authenticates the
network (§3.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from repro.sim.errors import ProtocolError
from repro.wire import pack_tlv, parse_tlv

__all__ = ["IeId", "InformationElement", "pack_ies", "parse_ies", "find_ie",
           "ssid_ie", "ds_param_ie", "rates_ie", "challenge_ie"]


class IeId(enum.IntEnum):
    """Element IDs used by the reproduction (subset of the standard)."""

    SSID = 0
    SUPPORTED_RATES = 1
    DS_PARAMETER = 3  # current channel
    TIM = 5
    CHALLENGE_TEXT = 16
    CHANNEL_SWITCH = 37  # CSA: "I am moving to channel N in M beacons"
    RSN = 48  # robust security network: ciphers, AKMs, PMF bits
    MME = 76  # management MIC element (802.11w protected deauth)
    VENDOR_SPECIFIC = 221  # OUI-scoped blobs (WPA v1 lived here)


@dataclass(frozen=True)
class InformationElement:
    """One TLV element: a 1-byte id, 1-byte length, and up to 255 bytes."""

    element_id: int
    data: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.element_id <= 255:
            raise ProtocolError("IE id out of range")
        if len(self.data) > 255:
            raise ProtocolError("IE data longer than 255 bytes")

    def pack(self) -> bytes:
        return pack_tlv([(self.element_id, self.data)])


def pack_ies(ies: list[InformationElement]) -> bytes:
    """Serialize a list of IEs back-to-back."""
    return pack_tlv([(ie.element_id, ie.data) for ie in ies])


def parse_ies(data: Union[bytes, bytearray, memoryview]) -> list[InformationElement]:
    """Parse back-to-back TLVs; raises :class:`ProtocolError` on truncation."""
    return [InformationElement(eid, bytes(body))
            for eid, body in parse_tlv(data, label="IE")]


def find_ie(ies: list[InformationElement], element_id: int) -> InformationElement | None:
    """First IE with the given id, or None."""
    for ie in ies:
        if ie.element_id == element_id:
            return ie
    return None


# ----------------------------------------------------------------------
# typed constructors for the elements the reproduction uses
# ----------------------------------------------------------------------

def ssid_ie(ssid: str) -> InformationElement:
    """The (self-asserted, unauthenticated) network name."""
    raw = ssid.encode("utf-8")
    if len(raw) > 32:
        raise ProtocolError("SSID longer than 32 bytes")
    return InformationElement(IeId.SSID, raw)


def ds_param_ie(channel: int) -> InformationElement:
    """Current channel advertisement."""
    if not 1 <= channel <= 14:
        raise ProtocolError(f"invalid channel {channel}")
    return InformationElement(IeId.DS_PARAMETER, bytes([channel]))


def rates_ie() -> InformationElement:
    """802.11b's supported rates (1, 2, 5.5, 11 Mb/s) in the 500 kb/s
    encoding (basic-rate bit set)."""
    encoded = bytes((int(r * 2) | 0x80) & 0xFF for r in (1.0, 2.0, 5.5, 11.0))
    return InformationElement(IeId.SUPPORTED_RATES, encoded)


def challenge_ie(challenge: bytes) -> InformationElement:
    """Shared-key authentication challenge text (128 bytes on real gear)."""
    return InformationElement(IeId.CHALLENGE_TEXT, challenge)
