"""The detector registry: pluggable analysers over monitor-mode frames.

Two families live here:

* **Streaming detectors** (:class:`Detector` subclasses) consume one
  :class:`~repro.dot11.capture.CapturedFrame` at a time via
  :meth:`Detector.observe` and return at most one :class:`Detection`
  per frame, evidence that the :mod:`~repro.wids.correlate` engine
  accumulates into alerts.  Each is registered under a stable name
  with :func:`register` so engines, evaluation sweeps, and the CLI can
  enumerate them.  A :class:`DetectorBank` routes each frame only to
  the detectors whose ``SUBTYPES`` name its subtype, and decodes a
  beacon once for all of them.

* The **offline** :class:`SeqCtlMonitor` — the §2.3 sequence-control
  analyser (also re-exported by :mod:`repro.defense`).  It
  post-processes a whole capture into per-transmitter
  :class:`SpoofVerdict`\\ s; the streaming
  :class:`SeqCtlAnomalyDetector` is its online counterpart.

The streaming seqctl detector deliberately counts only *large* forward
gaps (two radios with independent counters), not duplicate sequence
numbers: a live monitor cannot tell a duplicate from its own missed
retry flag, whereas the offline monitor sees the whole stream and keeps
the stricter gap==0 rule.  The rogue's ``mirror_seqctl`` evasion knob
targets that asymmetry, and the evaluation harness measures how well
it works.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (ClassVar, Dict, FrozenSet, Iterable, List, NamedTuple,
                    Optional, Tuple, Type)

from repro.dot11.capture import CapturedFrame, FrameCapture
from repro.dot11.frames import BeaconInfo, FrameSubtype
from repro.dot11.mac import MacAddress
from repro.dot11.seqctl import SEQ_MODULO, SequenceCounter
from repro.obs.runtime import instruments
from repro.sim.errors import ProtocolError

__all__ = [
    "BeaconFingerprintDetector",
    "BeaconJitterDetector",
    "DeauthFloodDetector",
    "Detection",
    "Detector",
    "DetectorBank",
    "DETECTORS",
    "MultiChannelSsidDetector",
    "RsnMismatchDetector",
    "SeqCtlAnomalyDetector",
    "SeqCtlMonitor",
    "SpoofVerdict",
    "UnexpectedCsaDetector",
    "default_detectors",
    "register",
]


# ----------------------------------------------------------------------
# streaming detector framework
# ----------------------------------------------------------------------

class Detection(NamedTuple):
    """One piece of evidence a detector extracted from one frame."""

    subject: str          # who is accused (BSSID, SSID/BSSID pair, ...)
    score: float = 1.0    # evidence weight toward the alert threshold
    reason: str = ""


#: Subtypes that carry a beacon body (:meth:`Dot11Frame.parse_beacon`).
_BEACON_SUBTYPES = (FrameSubtype.BEACON, FrameSubtype.PROBE_RESP)


class Detector:
    """Base class: stateful, one instance per engine, frames in order.

    ``threshold`` is the accumulated-evidence score at which the
    correlation engine opens an alert for a subject; ``SWEEP`` is the
    threshold ladder the ROC evaluation walks (it includes
    ``threshold``).  ``SUBTYPES`` names the frame subtypes the detector
    reads: a :class:`DetectorBank` routes no other frame to it.  Each
    detector still returns ``None`` for a frame outside them, so fed
    every frame it scores exactly what the bank's routing scores.
    """

    name: ClassVar[str] = ""
    threshold: ClassVar[float] = 1.0
    SWEEP: ClassVar[Tuple[float, ...]] = (1.0,)
    SUBTYPES: ClassVar[FrozenSet[FrameSubtype]] = frozenset(FrameSubtype)

    def observe(self, cap: CapturedFrame,
                beacon: Optional[BeaconInfo]) -> Optional[Detection]:
        """Fold one frame in; the evidence it yields, if any.

        ``beacon`` is the frame's decoded beacon body: ``None`` unless
        the frame is a beacon or probe response that decodes.
        """
        raise NotImplementedError


#: Registry of detector classes by stable name, in registration order
#: (dicts preserve insertion order; determinism depends on it).
DETECTORS: Dict[str, Type[Detector]] = {}


def register(cls: Type[Detector]) -> Type[Detector]:
    """Class decorator: add a detector to the registry under its name."""
    if not cls.name:
        raise ValueError(f"detector {cls.__name__} has no name")
    if cls.name in DETECTORS:
        raise ValueError(f"detector name {cls.name!r} already registered")
    DETECTORS[cls.name] = cls
    return cls


def default_detectors() -> list[Detector]:
    """Fresh instances of every registered detector, registry order."""
    return [cls() for cls in DETECTORS.values()]


class DetectorBank:
    """Detectors routed by frame subtype, one beacon decode per frame.

    The WIDS's one frame loop: the live engine and the offline
    evaluation hand every captured frame to :meth:`observe`.  Detectors
    keep their given order (registry order for
    :func:`default_detectors`) within each subtype's route.
    """

    def __init__(self, detectors: Iterable[Detector]) -> None:
        self.detectors = list(detectors)
        self._routes = {subtype: [d for d in self.detectors
                                  if subtype in d.SUBTYPES]
                        for subtype in FrameSubtype}

    def observe(self, cap: CapturedFrame) -> List[Tuple[Detector, Detection]]:
        """``(detector, detection)`` for every detector the frame moved."""
        frame = cap.frame
        beacon = None
        if frame.subtype in _BEACON_SUBTYPES:
            try:
                beacon = frame.parse_beacon()
            except ProtocolError:
                pass
        hits = []
        for detector in self._routes[frame.subtype]:
            detection = detector.observe(cap, beacon)
            if detection is not None:
                hits.append((detector, detection))
        return hits


# ----------------------------------------------------------------------
# streaming detectors
# ----------------------------------------------------------------------

@register
class SeqCtlAnomalyDetector(Detector):
    """§2.3 online: large sequence-control gaps mean a second radio.

    A single radio stamps frames from one 12-bit counter, so the gap
    between consecutive frames from one transmitter address is small
    even across the 4096 wrap-around (the gap is modular).  Gaps above
    ``gap_threshold`` are evidence of interleaved counters.
    """

    name = "seqctl"
    threshold = 3.0
    SWEEP = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0)
    gap_threshold = 64

    def __init__(self) -> None:
        self._last_seq: Dict[MacAddress, int] = {}

    def observe(self, cap: CapturedFrame,
                beacon: Optional[BeaconInfo]) -> Optional[Detection]:
        frame = cap.frame
        # Control frames (ACK) carry no sequence number; skip them.
        if frame.subtype is FrameSubtype.ACK:
            return None
        prev = self._last_seq.get(frame.addr2)
        self._last_seq[frame.addr2] = frame.seq
        if prev is None:
            return None
        gap = SequenceCounter.gap(prev, frame.seq)
        if gap > self.gap_threshold:
            return Detection(
                subject=str(frame.addr2),
                reason=(f"sequence jump {prev}->{frame.seq} "
                        f"(gap {gap} > {self.gap_threshold}) — "
                        f"interleaved counters"),
            )
        return None


@register
class BeaconFingerprintDetector(Detector):
    """Fig. 1 evil twin: one SSID+BSSID advertised two different ways.

    The first beacon seen for an (SSID, BSSID) pair pins its
    fingerprint — capability field, advertised channel IE, beacon
    interval.  Any later beacon for the same pair with a *different*
    fingerprint is evidence of a second AP cloning the identity: a
    rogue can copy the name and the MAC, but its configuration leaks.
    """

    name = "fingerprint"
    threshold = 1.0
    SWEEP = (1.0, 2.0, 4.0, 8.0)
    SUBTYPES = frozenset(_BEACON_SUBTYPES)

    def __init__(self) -> None:
        self._fingerprints: Dict[Tuple[str, MacAddress],
                                 Tuple[int, int, int]] = {}

    def observe(self, cap: CapturedFrame,
                beacon: Optional[BeaconInfo]) -> Optional[Detection]:
        if beacon is None:
            return None
        key = (beacon.ssid, beacon.bssid)
        fp = (beacon.capability, beacon.channel, beacon.interval_tu)
        seen = self._fingerprints.get(key)
        if seen is None:
            self._fingerprints[key] = fp
        elif fp != seen:
            return Detection(
                subject=f"{beacon.ssid}/{beacon.bssid}",
                reason=(f"conflicting advertisement: "
                        f"cap/chan/interval {seen} vs {fp}"),
            )
        return None


@register
class MultiChannelSsidDetector(Detector):
    """One BSS sending beacons on two radio channels — two physical radios.

    Keys on the *air* channel the beacon was heard on, not the channel
    IE it claims: an evil twin can forge every byte of its beacon, but
    it cannot transmit on the legitimate AP's channel from a different
    channel.  Scanning clients probe everywhere legitimately, so only
    AP-role frames (beacons, probe responses) count.
    """

    name = "multichannel"
    threshold = 2.0
    SWEEP = (1.0, 2.0, 4.0, 8.0)
    SUBTYPES = frozenset(_BEACON_SUBTYPES)

    def __init__(self) -> None:
        self._home_channel: Dict[MacAddress, int] = {}

    def observe(self, cap: CapturedFrame,
                beacon: Optional[BeaconInfo]) -> Optional[Detection]:
        # The subtype, not ``beacon``: a beacon that fails to decode was
        # still sent on this channel.
        if cap.frame.subtype not in _BEACON_SUBTYPES:
            return None
        addr = cap.frame.addr2
        home = self._home_channel.get(addr)
        if home is None:
            self._home_channel[addr] = cap.channel
        elif cap.channel != home:
            return Detection(
                subject=str(addr),
                reason=(f"AP-role frames on channel {cap.channel} and "
                        f"{home} — one address, two radios"),
            )
        return None


@register
class BeaconJitterDetector(Detector):
    """Beacon cadence drift: soft-AP schedulers are sloppier than ASICs.

    A hardware AP's TBTT is crystal-driven: consecutive beacons land a
    near-exact multiple of the advertised interval apart (missed
    beacons just skip integer multiples).  A hostap-style soft-AP adds
    OS scheduling jitter.  Inter-beacon gaps deviating from the nearest
    integer multiple of the advertised interval by more than
    ``rel_tolerance`` are evidence.
    """

    name = "beacon-jitter"
    threshold = 5.0
    SWEEP = (2.0, 5.0, 10.0, 20.0)
    SUBTYPES = frozenset((FrameSubtype.BEACON,))

    #: Fractional deviation from the nearest interval multiple that a
    #: crystal-timed AP never shows (CSMA deferral is ~0.4% of 100 TU).
    rel_tolerance = 0.15

    def __init__(self) -> None:
        self._last_beacon: Dict[Tuple[MacAddress, int], float] = {}

    def observe(self, cap: CapturedFrame,
                beacon: Optional[BeaconInfo]) -> Optional[Detection]:
        if cap.frame.subtype is not FrameSubtype.BEACON:
            return None
        if beacon is None or beacon.interval_tu <= 0:
            return None
        key = (beacon.bssid, cap.channel)
        prev = self._last_beacon.get(key)
        self._last_beacon[key] = cap.time
        if prev is None:
            return None
        expected = beacon.interval_tu * 1024e-6  # TU -> seconds
        dt = cap.time - prev
        multiples = round(dt / expected)
        if multiples < 1:
            return None
        deviation = abs(dt - multiples * expected)
        if deviation > self.rel_tolerance * expected:
            return Detection(
                subject=str(beacon.bssid),
                reason=(f"beacon cadence off by {deviation * 1e3:.1f} ms "
                        f"from {multiples}x{expected * 1e3:.1f} ms — "
                        f"software-timed AP"),
            )
        return None


@register
class DeauthFloodDetector(Detector):
    """§3.2 deauth-flood DoS: broadcast/targeted deauths at attack rate.

    Legitimate deauths are rare one-offs (a client leaving, a class-3
    error); an injector repeats them continuously to hold victims off
    the air.  Each deauth beyond ``flood_count`` within ``window_s``
    for one claimed source is evidence.
    """

    name = "deauth-flood"
    threshold = 4.0
    SWEEP = (1.0, 2.0, 4.0, 8.0, 16.0)
    SUBTYPES = frozenset((FrameSubtype.DEAUTH, FrameSubtype.DISASSOC))
    window_s = 5.0
    flood_count = 8

    def __init__(self) -> None:
        self._times: Dict[MacAddress, deque] = {}

    def observe(self, cap: CapturedFrame,
                beacon: Optional[BeaconInfo]) -> Optional[Detection]:
        if cap.frame.subtype not in (FrameSubtype.DEAUTH,
                                     FrameSubtype.DISASSOC):
            return None
        times = self._times.setdefault(cap.frame.addr2, deque())
        cutoff = cap.time - self.window_s
        while times and times[0] < cutoff:
            times.popleft()
        times.append(cap.time)
        if len(times) > self.flood_count:
            subject = str(cap.frame.addr2)
            return Detection(
                subject=subject,
                reason=(f"{len(times)} deauth/disassoc in "
                        f"{self.window_s:g} s claiming {subject}"),
            )
        return None


@register
class RsnMismatchDetector(Detector):
    """WPA3-downgrade evidence: one SSID advertised at two postures.

    The first beacon seen for an SSID pins its security posture — the
    raw RSN IE bytes (or their absence).  Any later advertisement of
    the same SSID with a *different* posture is evidence: a downgrade
    rogue must offer weaker security than the network it impersonates,
    and the RSN IE is where that offer is written.  Keying on the SSID
    alone (not SSID+BSSID) catches rogues that don't bother cloning
    the BSSID; legacy networks advertise no RSN anywhere, so the
    posture is uniformly "absent" and the detector stays silent.
    """

    name = "rsn-mismatch"
    threshold = 1.0
    SWEEP = (1.0, 2.0, 4.0, 8.0)
    SUBTYPES = frozenset(_BEACON_SUBTYPES)

    def __init__(self) -> None:
        self._postures: Dict[str, Optional[bytes]] = {}

    def observe(self, cap: CapturedFrame,
                beacon: Optional[BeaconInfo]) -> Optional[Detection]:
        if beacon is None:
            return None
        posture = beacon.rsn  # raw IE bytes, None when absent
        seen = self._postures.setdefault(beacon.ssid, posture)
        if posture != seen:
            def _label(p: Optional[bytes]) -> str:
                return "no-RSN" if p is None else f"RSN[{p.hex()}]"
            return Detection(
                subject=f"{beacon.ssid}/{beacon.bssid}",
                reason=(f"SSID {beacon.ssid!r} advertised as "
                        f"{_label(posture)} but pinned as "
                        f"{_label(seen)} — downgrade lure"),
            )
        return None


@register
class UnexpectedCsaDetector(Detector):
    """Channel-switch herding: CSA announcements are unauthenticated.

    A genuine channel switch is a rare, short burst of CSA-bearing
    beacons (the countdown); a lure repeats them indefinitely to drag
    every client onto the attacker's channel.  Each CSA-bearing
    beacon/probe-response is one unit of evidence, and the
    threshold sits above a genuine countdown's worth.
    """

    name = "unexpected-CSA"
    threshold = 5.0
    SWEEP = (1.0, 2.0, 5.0, 10.0, 20.0)
    SUBTYPES = frozenset(_BEACON_SUBTYPES)

    def observe(self, cap: CapturedFrame,
                beacon: Optional[BeaconInfo]) -> Optional[Detection]:
        if beacon is None or beacon.csa is None:
            return None
        return Detection(
            subject=str(cap.frame.addr2),
            reason=(f"CSA in beacon for {beacon.ssid!r} on channel "
                    f"{cap.channel} announcing a switch"),
        )


# ----------------------------------------------------------------------
# offline sequence-control monitor
# ----------------------------------------------------------------------

@dataclass
class SpoofVerdict:
    """Analysis result for one transmitter address."""

    transmitter: MacAddress
    frames: int
    anomalies: int
    max_gap: int
    channels_seen: tuple[int, ...]
    spoofed: bool
    reason: str = ""


class SeqCtlMonitor:
    """Offline/online analyser over a monitor-mode capture.

    §2.3: "These techniques rely on monitoring 802.11b Sequence Control
    numbers"; reference [15] is Wright's *Detecting Wireless LAN MAC
    Address Spoofing*.  A single radio stamps frames from one
    monotonically increasing 12-bit counter; a second radio under the
    same address produces gaps one radio cannot.

    Parameters
    ----------
    gap_threshold:
        Forward gaps above this count as anomalies.  Healthy single
        transmitters produce gaps of 1 (occasionally a handful under
        loss — the monitor misses frames too, so the threshold trades
        false positives against sensitivity: the E-DETECT ablation).
    """

    #: Fraction of anomalous gaps above which the verdict is "spoofed".
    ANOMALY_RATE_THRESHOLD = 0.05

    def __init__(self, capture: FrameCapture, *, gap_threshold: int = 64) -> None:
        self.capture = capture
        self.gap_threshold = gap_threshold

    def analyze_transmitter(self, mac: MacAddress) -> SpoofVerdict:
        """Sequence-gap analysis for all frames claiming transmitter ``mac``."""
        seqs: list[int] = []
        channels: set[int] = set()
        for cap in self.capture.select(transmitter=mac):
            # Control frames (ACK) carry no sequence number; skip them.
            if cap.frame.subtype is FrameSubtype.ACK:
                continue
            seqs.append(cap.frame.seq)
            # Multi-channel evidence only counts for AP-role frames:
            # scanning *clients* legitimately probe on every channel.
            if cap.frame.subtype in (FrameSubtype.BEACON, FrameSubtype.PROBE_RESP):
                channels.add(cap.channel)
        anomalies = 0
        max_gap = 0
        for prev, cur in zip(seqs, seqs[1:]):
            gap = SequenceCounter.gap(prev, cur)
            # gap==0 (duplicate, not retry-flagged) and huge gaps are anomalies.
            if gap == 0 or gap > self.gap_threshold:
                anomalies += 1
            if self.gap_threshold < gap < SEQ_MODULO:
                max_gap = max(max_gap, gap)
        rate = anomalies / max(1, len(seqs) - 1)
        multichannel = len(channels) > 1
        spoofed = False
        reason = ""
        if multichannel:
            spoofed = True
            reason = (f"one transmitter address sending beacons on channels "
                      f"{sorted(channels)} — two radios")
        elif len(seqs) > 8 and rate >= self.ANOMALY_RATE_THRESHOLD:
            spoofed = True
            reason = (f"interleaved sequence streams: {anomalies} anomalous "
                      f"gaps in {len(seqs)} frames")
        m = instruments().metrics
        if m is not None:
            m.incr("detect.analyses")
            m.incr("detect.anomalies", anomalies)
            if spoofed:
                m.incr("detect.flagged")
        return SpoofVerdict(
            transmitter=mac,
            frames=len(seqs),
            anomalies=anomalies,
            max_gap=max_gap,
            channels_seen=tuple(sorted(channels)),
            spoofed=spoofed,
            reason=reason,
        )

    def analyze_all(self) -> list[SpoofVerdict]:
        """Verdicts for every transmitter seen, flagged ones first."""
        verdicts = [self.analyze_transmitter(mac)
                    for mac in sorted(self.capture.transmitters())]
        verdicts.sort(key=lambda v: (not v.spoofed, str(v.transmitter)))
        return verdicts

    def flagged(self) -> list[SpoofVerdict]:
        return [v for v in self.analyze_all() if v.spoofed]
