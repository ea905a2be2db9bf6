"""802.11 frame model with byte-level serialization.

Frames serialize to wire bytes (24-byte MAC header, body, CRC-32 FCS)
and parse back.  This is not gratuitous realism: WEP encrypts the
*serialized* body, the FMS attack reads the first ciphertext byte, and
the sequence-control detector reads the raw header — all of which need
real bytes on the simulated air.

Only the frame types the paper's scenarios exercise are modelled:
management (beacon, probe, auth, assoc, deauth, disassoc), data, and
ACK.  RTS/CTS and fragmentation are out of scope (nothing in the paper
depends on them).
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.dot11.ies import (
    IeId,
    InformationElement,
    challenge_ie,
    ds_param_ie,
    find_ie,
    pack_ies,
    parse_ies,
    rates_ie,
    ssid_ie,
)
from repro.dot11.mac import BROADCAST, MacAddress
from repro.obs.lineage import flight_recorder
from repro.obs.runtime import active_profiler, obs_metrics
from repro.sim.errors import ProtocolError
from repro.wire import EncodeCache, HeaderSpec, fixed_bytes, u8, u16

__all__ = [
    "CAP_ESS",
    "CAP_PRIVACY",
    "AuthAlgorithm",
    "BeaconInfo",
    "Dot11Frame",
    "FrameSubtype",
    "FrameType",
    "ReasonCode",
    "StatusCode",
    "make_ack",
    "make_assoc_request",
    "make_assoc_response",
    "make_auth",
    "make_beacon",
    "make_data",
    "make_deauth",
    "make_disassoc",
    "make_probe_request",
    "make_probe_response",
    "reason_name",
]

HEADER_LEN = 24
FCS_LEN = 4

# Capability field bits (beacon / probe response / assoc request).
CAP_ESS = 0x0001
CAP_PRIVACY = 0x0010  # "WEP required" — what Fig. 1's APs both advertise


class FrameType(enum.IntEnum):
    MANAGEMENT = 0
    CONTROL = 1
    DATA = 2


class FrameSubtype(enum.IntEnum):
    """(type, subtype) pairs flattened into one enum for convenience."""

    ASSOC_REQ = 0x00
    ASSOC_RESP = 0x01
    PROBE_REQ = 0x04
    PROBE_RESP = 0x05
    BEACON = 0x08
    DISASSOC = 0x0A
    AUTH = 0x0B
    DEAUTH = 0x0C
    DATA = 0x20
    ACK = 0x1D

    @property
    def frame_type(self) -> FrameType:
        return FrameType((self.value >> 4) & 0x3) if self.value >= 0x10 else FrameType.MANAGEMENT

    @property
    def subtype_bits(self) -> int:
        return self.value & 0x0F


class AuthAlgorithm(enum.IntEnum):
    OPEN_SYSTEM = 0
    SHARED_KEY = 1
    SAE = 3  # 802.11s/WPA3 simultaneous authentication of equals


class ReasonCode(enum.IntEnum):
    """Standard deauth/disassoc reason codes (802.11-2016 Table 9-45 subset).

    Carrying the *standard* numbers matters operationally: a WIDS
    operator reading a trace must be able to tell an AP's legitimate
    inactivity kick (4) from an attacker's forged PREV_AUTH_EXPIRED
    flood, and a PMF station logs INVALID_MDE-class rejections with the
    802.11w numbers real gear would show.
    """

    UNSPECIFIED = 1
    PREV_AUTH_EXPIRED = 2
    DEAUTH_LEAVING = 3
    INACTIVITY = 4
    AP_OVERLOAD = 5
    CLASS2_FROM_NONAUTH = 6
    CLASS3_FROM_NONASSOC = 7
    DISASSOC_LEAVING = 8
    ASSOC_WITHOUT_AUTH = 9
    # 802.11i (RSN) range
    INVALID_IE = 13
    MIC_FAILURE = 14
    FOURWAY_HANDSHAKE_TIMEOUT = 15
    GROUP_KEY_HANDSHAKE_TIMEOUT = 16
    IE_DIFFERENT_FROM_ASSOC = 17
    INVALID_GROUP_CIPHER = 18
    INVALID_PAIRWISE_CIPHER = 19
    INVALID_AKMP = 20
    UNSUPPORTED_RSN_VERSION = 21
    INVALID_RSN_CAPABILITIES = 22
    IEEE_8021X_AUTH_FAILED = 23
    CIPHER_REJECTED_PER_POLICY = 24


def reason_name(code: int) -> str:
    """Human-readable label for a reason code; unknown codes stay numeric.

    Validation helper for traces and WIDS alert payloads: known codes
    render as their standard mnemonic, anything else (attacker-chosen
    garbage included) as ``reason-<n>`` so it is still greppable.
    """
    try:
        return ReasonCode(code).name
    except ValueError:
        return f"reason-{int(code)}"


class StatusCode(enum.IntEnum):
    SUCCESS = 0
    UNSPECIFIED_FAILURE = 1
    CHALLENGE_FAILURE = 15
    AUTH_TIMEOUT = 16
    ASSOC_DENIED_UNSPEC = 17


# Flag bits in the second FC byte.
_FLAG_TO_DS = 0x01
_FLAG_FROM_DS = 0x02
_FLAG_RETRY = 0x08
_FLAG_PROTECTED = 0x40

_MAC_HEADER = HeaderSpec(
    "802.11 MAC header", "<",
    u8("fc0"),
    u8("fc1"),
    u16("duration"),
    fixed_bytes("addr1", 6, enc=lambda m: m.bytes, dec=MacAddress),
    fixed_bytes("addr2", 6, enc=lambda m: m.bytes, dec=MacAddress),
    fixed_bytes("addr3", 6, enc=lambda m: m.bytes, dec=MacAddress),
    u16("seqctl"),
)

#: One-entry memo of :meth:`Dot11Frame.parse_beacon`: ``(frame, info)``
#: for the last beacon decoded.  Every NIC in range and every WIDS
#: detector reads the same frame object back to back, so one entry
#: serves them all.  It holds the frame itself, so an identity match can
#: never be a recycled id, and it is sound for the same reason the
#: encode cache is: wire fields are never mutated after construction.
#: Kept here, not on the frame, so captured beacons carry no decoded
#: copy.
_last_beacon: tuple = (None, None)


@dataclass(slots=True)
class Dot11Frame:
    """One 802.11 frame.

    ``addr1`` is the receiver, ``addr2`` the transmitter, ``addr3`` the
    BSSID (management / infrastructure-data usage).  ``body`` is the
    frame body *as transmitted*: for protected data frames that means
    the WEP-expanded ciphertext.

    Slotted: a monitor capture keeps every overheard frame until its
    world is collected, so the per-frame size sets a run's peak memory.
    """

    subtype: FrameSubtype
    addr1: MacAddress
    addr2: MacAddress
    addr3: MacAddress
    body: bytes = b""
    seq: int = 0
    frag: int = 0
    duration: int = 0
    protected: bool = False
    to_ds: bool = False
    from_ds: bool = False
    retry: bool = False
    #: Flight-recorder lineage id (repro.obs.lineage); assigned at first
    #: transmission while a recorder is installed.  Excluded from
    #: equality/repr: lineage annotation must never change frame
    #: semantics (the zero-perturbation contract).
    trace_id: Optional[int] = field(default=None, compare=False, repr=False)
    #: Per-instance encode cache, keyed on ``with_fcs``.  ``init=False``
    #: means :func:`dataclasses.replace` (and therefore
    #: :meth:`with_body`) produces a copy with a *cold* cache — that is
    #: the entire invalidation story, since wire fields are never
    #: mutated after construction (only ``trace_id`` is, and it is not
    #: serialized).
    _wire_cache: Optional[EncodeCache] = field(
        default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # identity helpers
    # ------------------------------------------------------------------
    @property
    def frame_type(self) -> FrameType:
        return self.subtype.frame_type

    @property
    def bssid(self) -> MacAddress:
        return self.addr3

    @property
    def destination(self) -> MacAddress:
        """Final destination (addr3 when to-DS, else addr1)."""
        return self.addr3 if self.to_ds and not self.from_ds else self.addr1

    @property
    def source(self) -> MacAddress:
        """Original source (addr3 when from-DS, else addr2)."""
        return self.addr3 if self.from_ds and not self.to_ds else self.addr2

    def is_management(self) -> bool:
        return self.frame_type is FrameType.MANAGEMENT

    def is_data(self) -> bool:
        return self.subtype is FrameSubtype.DATA

    def with_body(self, body: bytes, protected: Optional[bool] = None) -> "Dot11Frame":
        """Copy with a replaced body (used by WEP encap/decap)."""
        return replace(
            self,
            body=body,
            protected=self.protected if protected is None else protected,
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_bytes(self, with_fcs: bool = True) -> bytes:
        prof = active_profiler()
        if prof is None:
            return self._encode(with_fcs)
        with prof.span("codec.frame.encode"):
            return self._encode(with_fcs)

    def _encode(self, with_fcs: bool) -> bytes:
        cache = self._wire_cache
        if cache is None:
            cache = self._wire_cache = EncodeCache()
        raw = cache.get(with_fcs)
        if raw is not None:
            return raw
        m = obs_metrics()
        if m is not None:
            m.incr("dot11.frames_encoded")
        fc0 = (self.frame_type.value << 2) | (self.subtype.subtype_bits << 4)
        fc1 = 0
        if self.to_ds:
            fc1 |= _FLAG_TO_DS
        if self.from_ds:
            fc1 |= _FLAG_FROM_DS
        if self.retry:
            fc1 |= _FLAG_RETRY
        if self.protected:
            fc1 |= _FLAG_PROTECTED
        raw = _MAC_HEADER.pack(
            fc0=fc0,
            fc1=fc1,
            duration=self.duration & 0xFFFF,
            addr1=self.addr1,
            addr2=self.addr2,
            addr3=self.addr3,
            seqctl=((self.seq & 0x0FFF) << 4) | (self.frag & 0x0F),
        ) + self.body
        if with_fcs:
            raw += zlib.crc32(raw).to_bytes(4, "little")
        rec = flight_recorder()
        if rec is not None and self.trace_id is not None:
            rec.hop("dot11", "encode", trace_id=self.trace_id,
                    bytes=len(raw), subtype=self.subtype.name)
        return cache.put(with_fcs, raw)

    @classmethod
    def from_bytes(cls, raw: "bytes | bytearray | memoryview",
                   with_fcs: bool = True) -> "Dot11Frame":
        prof = active_profiler()
        if prof is None:
            return cls._decode(raw, with_fcs)
        with prof.span("codec.frame.decode"):
            return cls._decode(raw, with_fcs)

    @classmethod
    def _decode(cls, raw: "bytes | bytearray | memoryview", with_fcs: bool) -> "Dot11Frame":
        m = obs_metrics()
        if m is not None:
            m.incr("dot11.frames_decoded")
        view = memoryview(raw)
        if with_fcs:
            if len(view) < HEADER_LEN + FCS_LEN:
                raise ProtocolError("frame too short")
            payload, fcs = view[:-FCS_LEN], view[-FCS_LEN:]
            if zlib.crc32(payload) != int.from_bytes(fcs, "little"):
                raise ProtocolError("FCS check failed (corrupted frame)")
        else:
            if len(view) < HEADER_LEN:
                raise ProtocolError("frame too short")
            payload = view
        fields = _MAC_HEADER.unpack(payload)
        fc0 = fields["fc0"]
        fc1 = fields["fc1"]
        ftype = (fc0 >> 2) & 0x3
        subtype_bits = (fc0 >> 4) & 0xF
        flat = subtype_bits if ftype == 0 else (ftype << 4) | subtype_bits
        try:
            subtype = FrameSubtype(flat)
        except ValueError as exc:
            raise ProtocolError(f"unsupported frame subtype {flat:#x}") from exc
        rec = flight_recorder()
        trace_id = None
        if rec is not None:
            # A frame re-parsed from sniffed bytes is the *same* frame:
            # inherit the lineage of the delivery being processed.
            trace_id = rec.current()
            if trace_id is not None:
                rec.hop("dot11", "decode", trace_id=trace_id,
                        bytes=len(view), subtype=subtype.name)
        seqctl = fields["seqctl"]
        return cls(
            subtype=subtype,
            addr1=fields["addr1"],
            addr2=fields["addr2"],
            addr3=fields["addr3"],
            body=bytes(payload[HEADER_LEN:]),
            seq=(seqctl >> 4) & 0x0FFF,
            frag=seqctl & 0x0F,
            duration=fields["duration"],
            protected=bool(fc1 & _FLAG_PROTECTED),
            to_ds=bool(fc1 & _FLAG_TO_DS),
            from_ds=bool(fc1 & _FLAG_FROM_DS),
            retry=bool(fc1 & _FLAG_RETRY),
            trace_id=trace_id,
        )

    def air_bytes(self) -> int:
        """On-air size, for airtime accounting."""
        return HEADER_LEN + len(self.body) + FCS_LEN

    # ------------------------------------------------------------------
    # management-body parsers
    # ------------------------------------------------------------------
    def parse_beacon(self) -> "BeaconInfo":
        """Parse a beacon or probe-response body.

        Repeat calls on the frame decoded last return the same
        :class:`BeaconInfo` (see ``_last_beacon``); errors are raised
        afresh on every call and never cached.
        """
        global _last_beacon
        if self.subtype not in (FrameSubtype.BEACON, FrameSubtype.PROBE_RESP):
            raise ProtocolError("not a beacon/probe-response frame")
        last = _last_beacon  # one read: a racing writer costs only a miss
        if last[0] is self:
            return last[1]
        if len(self.body) < 12:
            raise ProtocolError("beacon body too short")
        timestamp, interval, capability = struct.unpack("<QHH", self.body[:12])
        ies = parse_ies(self.body[12:])
        ssid = find_ie(ies, IeId.SSID)
        ds = find_ie(ies, IeId.DS_PARAMETER)
        rsn = find_ie(ies, IeId.RSN)
        csa = find_ie(ies, IeId.CHANNEL_SWITCH)
        info = BeaconInfo(
            timestamp=timestamp,
            interval_tu=interval,
            capability=capability,
            ssid=ssid.data.decode("utf-8", "replace") if ssid else "",
            channel=ds.data[0] if ds and ds.data else 0,
            bssid=self.addr3,
            rsn=rsn.data if rsn else None,
            csa=csa.data if csa else None,
        )
        _last_beacon = (self, info)
        return info

    def parse_auth(self) -> tuple[int, int, int, Optional[bytes]]:
        """Return (algorithm, transaction seq, status, challenge or None)."""
        if self.subtype is not FrameSubtype.AUTH:
            raise ProtocolError("not an authentication frame")
        if len(self.body) < 6:
            raise ProtocolError("auth body too short")
        alg, txn, status = struct.unpack("<HHH", self.body[:6])
        challenge = None
        if len(self.body) > 6:
            ch = find_ie(parse_ies(self.body[6:]), IeId.CHALLENGE_TEXT)
            challenge = ch.data if ch else None
        return alg, txn, status, challenge

    def parse_assoc_request(self) -> tuple[int, str]:
        """Return (capability, requested ssid)."""
        if self.subtype is not FrameSubtype.ASSOC_REQ:
            raise ProtocolError("not an association request")
        if len(self.body) < 4:
            raise ProtocolError("assoc-request body too short")
        capability, _listen = struct.unpack("<HH", self.body[:4])
        ssid = find_ie(parse_ies(self.body[4:]), IeId.SSID)
        return capability, ssid.data.decode("utf-8", "replace") if ssid else ""

    def parse_assoc_response(self) -> tuple[int, int, int]:
        """Return (capability, status, association id)."""
        if self.subtype is not FrameSubtype.ASSOC_RESP:
            raise ProtocolError("not an association response")
        if len(self.body) < 6:
            raise ProtocolError("assoc-response body too short")
        return struct.unpack("<HHH", self.body[:6])

    def parse_reason(self) -> int:
        """Reason code of a deauth/disassoc frame."""
        if self.subtype not in (FrameSubtype.DEAUTH, FrameSubtype.DISASSOC):
            raise ProtocolError("not a deauth/disassoc frame")
        if len(self.body) < 2:
            raise ProtocolError("reason body too short")
        return struct.unpack("<H", self.body[:2])[0]

    def parse_trailing_ies(self, offset: int) -> list:
        """IEs after a management body's fixed-field prefix.

        ``offset`` is the fixed-prefix length: 6 for auth, 4 for assoc
        request, 2 for deauth/disassoc (where 802.11w's MME rides).
        """
        if len(self.body) < offset:
            raise ProtocolError("management body shorter than fixed prefix")
        return parse_ies(self.body[offset:])


@dataclass(frozen=True)
class BeaconInfo:
    """Decoded beacon contents — everything a scanning client learns."""

    timestamp: int
    interval_tu: int
    capability: int
    ssid: str
    channel: int
    bssid: MacAddress
    #: Raw RSN IE body when the network advertises one (WPA2/WPA3);
    #: decoded on demand by ``repro.rsn`` (dot11 stays crypto-agnostic).
    rsn: Optional[bytes] = None
    #: Raw channel-switch-announcement IE body, when present.
    csa: Optional[bytes] = None

    @property
    def privacy(self) -> bool:
        """True when the network advertises WEP (the privacy bit)."""
        return bool(self.capability & CAP_PRIVACY)


# ----------------------------------------------------------------------
# frame constructors
# ----------------------------------------------------------------------

def make_beacon(
    bssid: MacAddress,
    ssid: str,
    channel: int,
    *,
    privacy: bool = False,
    interval_tu: int = 100,
    timestamp: int = 0,
    seq: int = 0,
    extra_ies: Optional[list[InformationElement]] = None,
) -> Dot11Frame:
    """A beacon frame, broadcast from the AP.

    Note what is *absent*: any authenticator of the network.  A rogue
    constructs a byte-identical beacon by copying these arguments.
    ``extra_ies`` (RSN, CSA, vendor blobs) append after the seed IEs;
    the default keeps the body byte-identical to the frozen goldens.
    """
    capability = CAP_ESS | (CAP_PRIVACY if privacy else 0)
    ies = [ssid_ie(ssid), rates_ie(), ds_param_ie(channel)]
    if extra_ies:
        ies.extend(extra_ies)
    body = struct.pack("<QHH", timestamp, interval_tu, capability) + pack_ies(ies)
    return Dot11Frame(
        subtype=FrameSubtype.BEACON,
        addr1=BROADCAST,
        addr2=bssid,
        addr3=bssid,
        body=body,
        seq=seq,
    )


def make_probe_request(src: MacAddress, ssid: str = "", seq: int = 0) -> Dot11Frame:
    """A probe request; empty SSID is the broadcast ("any network") probe."""
    body = pack_ies([ssid_ie(ssid), rates_ie()])
    return Dot11Frame(
        subtype=FrameSubtype.PROBE_REQ,
        addr1=BROADCAST,
        addr2=src,
        addr3=BROADCAST,
        body=body,
        seq=seq,
    )


def make_probe_response(
    bssid: MacAddress,
    dest: MacAddress,
    ssid: str,
    channel: int,
    *,
    privacy: bool = False,
    timestamp: int = 0,
    seq: int = 0,
    extra_ies: Optional[list[InformationElement]] = None,
) -> Dot11Frame:
    capability = CAP_ESS | (CAP_PRIVACY if privacy else 0)
    ies = [ssid_ie(ssid), rates_ie(), ds_param_ie(channel)]
    if extra_ies:
        ies.extend(extra_ies)
    body = struct.pack("<QHH", timestamp, 100, capability) + pack_ies(ies)
    return Dot11Frame(
        subtype=FrameSubtype.PROBE_RESP,
        addr1=dest,
        addr2=bssid,
        addr3=bssid,
        body=body,
        seq=seq,
    )


def make_auth(
    src: MacAddress,
    dest: MacAddress,
    bssid: MacAddress,
    *,
    algorithm: int = AuthAlgorithm.OPEN_SYSTEM,
    txn: int = 1,
    status: int = StatusCode.SUCCESS,
    challenge: Optional[bytes] = None,
    protected: bool = False,
    seq: int = 0,
    extra_ies: Optional[list[InformationElement]] = None,
) -> Dot11Frame:
    """An authentication frame (open-system, shared-key, or SAE).

    SAE commit/confirm payloads travel in ``extra_ies`` (a vendor
    container element); legacy parsers skip unknown elements, so the
    pre-RSN code paths never see them.
    """
    ies: list[InformationElement] = []
    if challenge is not None:
        ies.append(challenge_ie(challenge))
    if extra_ies:
        ies.extend(extra_ies)
    body = struct.pack("<HHH", algorithm, txn, status)
    if ies:
        body += pack_ies(ies)
    return Dot11Frame(
        subtype=FrameSubtype.AUTH,
        addr1=dest,
        addr2=src,
        addr3=bssid,
        body=body,
        protected=protected,
        seq=seq,
    )


def make_assoc_request(
    src: MacAddress,
    bssid: MacAddress,
    ssid: str,
    *,
    privacy: bool = False,
    seq: int = 0,
    extra_ies: Optional[list[InformationElement]] = None,
) -> Dot11Frame:
    capability = CAP_ESS | (CAP_PRIVACY if privacy else 0)
    ies = [ssid_ie(ssid), rates_ie()]
    if extra_ies:
        ies.extend(extra_ies)
    body = struct.pack("<HH", capability, 10) + pack_ies(ies)
    return Dot11Frame(
        subtype=FrameSubtype.ASSOC_REQ,
        addr1=bssid,
        addr2=src,
        addr3=bssid,
        body=body,
        seq=seq,
    )


def make_assoc_response(
    bssid: MacAddress,
    dest: MacAddress,
    *,
    status: int = StatusCode.SUCCESS,
    aid: int = 1,
    privacy: bool = False,
    seq: int = 0,
) -> Dot11Frame:
    capability = CAP_ESS | (CAP_PRIVACY if privacy else 0)
    body = struct.pack("<HHH", capability, status, aid | 0xC000) + pack_ies([rates_ie()])
    return Dot11Frame(
        subtype=FrameSubtype.ASSOC_RESP,
        addr1=dest,
        addr2=bssid,
        addr3=bssid,
        body=body,
        seq=seq,
    )


def make_deauth(
    src: MacAddress,
    dest: MacAddress,
    bssid: MacAddress,
    *,
    reason: int = ReasonCode.PREV_AUTH_EXPIRED,
    seq: int = 0,
    extra_ies: Optional[list[InformationElement]] = None,
) -> Dot11Frame:
    """A deauthentication frame.

    Unauthenticated and unencrypted in 802.11b/WEP — which is exactly
    why the paper's attacker "could force the client's disassociation
    from the legitimate AP" (§4) by forging these with the AP's
    addresses.  (802.11i later added "secure deauthentication", §2.2;
    a PMF AP appends its MME via ``extra_ies``.)
    """
    body = struct.pack("<H", int(reason))
    if extra_ies:
        body += pack_ies(extra_ies)
    return Dot11Frame(
        subtype=FrameSubtype.DEAUTH,
        addr1=dest,
        addr2=src,
        addr3=bssid,
        body=body,
        seq=seq,
    )


def make_disassoc(
    src: MacAddress,
    dest: MacAddress,
    bssid: MacAddress,
    *,
    reason: int = ReasonCode.INACTIVITY,
    seq: int = 0,
    extra_ies: Optional[list[InformationElement]] = None,
) -> Dot11Frame:
    body = struct.pack("<H", int(reason))
    if extra_ies:
        body += pack_ies(extra_ies)
    return Dot11Frame(
        subtype=FrameSubtype.DISASSOC,
        addr1=dest,
        addr2=src,
        addr3=bssid,
        body=body,
        seq=seq,
    )


def make_data(
    src: MacAddress,
    dest: MacAddress,
    bssid: MacAddress,
    payload: bytes,
    *,
    to_ds: bool = False,
    from_ds: bool = False,
    protected: bool = False,
    seq: int = 0,
) -> Dot11Frame:
    """An infrastructure data frame.

    For to-DS frames (station → AP): addr1 = BSSID, addr2 = station,
    addr3 = final destination.  For from-DS (AP → station): addr1 =
    station, addr2 = BSSID, addr3 = original source.
    """
    if to_ds and not from_ds:
        a1, a2, a3 = bssid, src, dest
    elif from_ds and not to_ds:
        a1, a2, a3 = dest, bssid, src
    else:
        a1, a2, a3 = dest, src, bssid
    return Dot11Frame(
        subtype=FrameSubtype.DATA,
        addr1=a1,
        addr2=a2,
        addr3=a3,
        body=payload,
        to_ds=to_ds,
        from_ds=from_ds,
        protected=protected,
        seq=seq,
    )


def make_ack(dest: MacAddress) -> Dot11Frame:
    """A control ACK (receiver address only on real air; we fill the rest)."""
    return Dot11Frame(
        subtype=FrameSubtype.ACK,
        addr1=dest,
        addr2=MacAddress(b"\x00" * 6),
        addr3=MacAddress(b"\x00" * 6),
    )
