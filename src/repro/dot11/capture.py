"""Monitor-mode frame capture.

"Wireless networks allow clients to sniff other people's packets"
(§1.1): any radio in range receives every frame, and a monitor-mode
NIC simply keeps them all.  :class:`FrameCapture` is the container the
sniffer, the Airsnort attacker, and the §2.3 detectors all consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.dot11.frames import Dot11Frame, FrameSubtype
from repro.dot11.mac import MacAddress

__all__ = ["CapturedFrame", "FrameCapture"]


@dataclass(frozen=True, slots=True)
class CapturedFrame:
    """One overheard frame with radio metadata (time, channel, RSSI).

    Slotted, like :class:`Dot11Frame`: a capture holds thousands.
    """

    time: float
    channel: int
    rssi_dbm: float
    frame: Dot11Frame

    @property
    def raw(self) -> bytes:
        return self.frame.to_bytes()


class FrameCapture:
    """An append-only capture buffer with pcap-style filtering.

    Examples
    --------
    ``cap.select(subtype=FrameSubtype.BEACON, bssid=ap_mac)`` yields all
    beacons claiming to be ``ap_mac`` — from the real AP *and* any
    rogue advertising the same BSSID.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.frames: list[CapturedFrame] = []
        self.capacity = capacity
        self._taps: list[Callable[[CapturedFrame], None]] = []

    def add(self, captured: CapturedFrame) -> None:
        self.frames.append(captured)
        if self.capacity is not None and len(self.frames) > self.capacity:
            # Evict the older half in one slice (amortised O(1) per add),
            # but always at least enough to satisfy the invariant
            # ``len(frames) <= capacity`` — with capacity=1 the old
            # ``capacity // 2`` evicted nothing and the buffer grew
            # without bound.
            drop = max(len(self.frames) - self.capacity, self.capacity // 2)
            del self.frames[:drop]
        for tap in self._taps:
            tap(captured)

    def tap(self, callback: Callable[[CapturedFrame], None]) -> Callable[[], None]:
        """Invoke ``callback`` for each new capture (live analysis)."""
        self._taps.append(callback)

        def remove() -> None:
            if callback in self._taps:
                self._taps.remove(callback)

        return remove

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[CapturedFrame]:
        return iter(self.frames)

    # ------------------------------------------------------------------
    # filters
    # ------------------------------------------------------------------
    def select(
        self,
        subtype: Optional[FrameSubtype] = None,
        transmitter: Optional[MacAddress] = None,
        receiver: Optional[MacAddress] = None,
        bssid: Optional[MacAddress] = None,
        protected: Optional[bool] = None,
        since: float = 0.0,
    ) -> Iterator[CapturedFrame]:
        for cap in self.frames:
            f = cap.frame
            if cap.time < since:
                continue
            if subtype is not None and f.subtype is not subtype:
                continue
            if transmitter is not None and f.addr2 != transmitter:
                continue
            if receiver is not None and f.addr1 != receiver:
                continue
            if bssid is not None and f.addr3 != bssid:
                continue
            if protected is not None and f.protected != protected:
                continue
            yield cap

    def count(self, **kw) -> int:
        return sum(1 for _ in self.select(**kw))

    def transmitters(self) -> set[MacAddress]:
        """Distinct transmitter addresses seen (site-survey primitive)."""
        return {cap.frame.addr2 for cap in self.frames}
