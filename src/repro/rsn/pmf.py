"""802.11w management-frame protection (PMF), BIP-CMAC style.

Once a PMF association is keyed, every deauth/disassoc the AP sends
carries a Management MIC Element (MME, element id 76): a key id, a
monotonically increasing packet number (IPN, replay protection), and a
truncated MAC over the frame's addresses, subtype, and body.  A
station that negotiated PMF *discards* any deauth/disassoc whose MME
is absent, stale, or wrong — so the paper's §4 deauth flood, which
forges exactly such frames without the key, bounces off.

Simplifications (DESIGN §15): the MIC is truncated HMAC-SHA1 rather
than AES-128-CMAC (the repo has no AES, and the experiments measure
*rejection of forgeries*, not cipher strength), the IGTK is derived
from the established pairwise KCK instead of being distributed in the
group handshake, and the pre-key SA-query dance is out of scope — PMF
here protects established sessions, which is where the flood attack
aims.

MME wire layout (802.11-2016 §9.4.2.55): u16 key id, 6-byte IPN,
8-byte MIC.
"""

from __future__ import annotations

import hmac
import struct
from dataclasses import dataclass
from typing import Optional, Union

from repro.dot11.frames import Dot11Frame
from repro.dot11.ies import IeId, InformationElement, find_ie
from repro.sim.errors import ProtocolError

__all__ = ["MME_LEN", "Mme", "derive_igtk", "mme_for_frame",
           "verify_mgmt_mic"]

_MIC_LEN = 8
_IPN_LEN = 6
MME_LEN = 2 + _IPN_LEN + _MIC_LEN  # keyid + ipn + mic


def derive_igtk(kck: bytes) -> bytes:
    """Integrity group key for management frames, from the pairwise KCK."""
    return hmac.digest(kck, b"BIP IGTK", "sha1")[:16]


@dataclass(frozen=True)
class Mme:
    """A decoded Management MIC Element."""

    key_id: int
    ipn: int
    mic: bytes

    def pack(self) -> bytes:
        return (struct.pack("<H", self.key_id)
                + self.ipn.to_bytes(_IPN_LEN, "little") + self.mic)

    def to_ie(self) -> InformationElement:
        return InformationElement(IeId.MME, self.pack())

    @classmethod
    def parse(cls, body: Union[bytes, bytearray, memoryview]) -> "Mme":
        raw = bytes(body)
        if len(raw) != MME_LEN:
            raise ProtocolError(f"MME must be {MME_LEN} bytes, got {len(raw)}")
        (key_id,) = struct.unpack("<H", raw[:2])
        return cls(key_id=key_id,
                   ipn=int.from_bytes(raw[2:2 + _IPN_LEN], "little"),
                   mic=raw[2 + _IPN_LEN:])


def _mic_input(frame: Dot11Frame, ipn: int) -> bytes:
    """The authenticated associated data: who, what, and the body."""
    return (bytes([frame.subtype.value])
            + frame.addr1.bytes + frame.addr2.bytes + frame.addr3.bytes
            + ipn.to_bytes(_IPN_LEN, "little")
            + frame.body)


def mme_for_frame(frame: Dot11Frame, igtk: bytes, ipn: int) -> Mme:
    """Build the MME for a management frame *before* the MME is appended.

    ``frame.body`` must hold the unprotected body (e.g. the 2-byte
    reason); the caller appends ``mme.to_ie()`` to it afterwards.
    """
    mic = hmac.digest(igtk, _mic_input(frame, ipn), "sha1")[:_MIC_LEN]
    return Mme(key_id=4, ipn=ipn, mic=mic)


def verify_mgmt_mic(frame: Dot11Frame, igtk: bytes,
                    last_ipn: int, *, body_prefix_len: int = 2
                    ) -> Optional[int]:
    """Check a received deauth/disassoc's MME.

    Returns the frame's IPN when the MIC verifies and the IPN advances
    past ``last_ipn`` (store it as the new high-water mark), or None
    for forgeries: MME missing, malformed, replayed, or MIC mismatch.
    """
    try:
        ies = frame.parse_trailing_ies(body_prefix_len)
    except ProtocolError:
        return None
    mme_el = find_ie(ies, IeId.MME)
    if mme_el is None:
        return None
    try:
        mme = Mme.parse(mme_el.data)
    except ProtocolError:
        return None
    if mme.ipn <= last_ipn:
        return None  # replay
    # Recompute over the body with the MME stripped (it was appended
    # after MIC computation, so the authenticated body ends where the
    # trailing IE list begins... minus the MME element itself).
    stripped = frame.with_body(
        frame.body[:len(frame.body) - (MME_LEN + 2)])
    expected = hmac.digest(igtk, _mic_input(stripped, mme.ipn), "sha1")[:_MIC_LEN]
    if not hmac.compare_digest(mme.mic, expected):
        return None
    return mme.ipn
