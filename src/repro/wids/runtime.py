"""The ambient WIDS watch: intrusion detection without a sniffer host.

:func:`wids_watch` installs a :class:`WidsWatch` as the ``wids`` field
of the ambient :func:`repro.obs.runtime.instruments` record, and the
radio layer feeds it directly: :meth:`Medium._fan_out` offers every
completed transmission to it *before* any per-receiver work, so the
watch sees the whole band the way an ideal distributed sensor would.

The hook is placed, deliberately, where it cannot perturb the world:
it runs before any receiver-RSSI RNG draw, never registers a radio
port, and only reads the frame.  Simulated results are bit-identical
with the watch installed, detached, or absent — the same ambient
zero-perturbation pattern as :func:`repro.obs.runtime.collecting` and
:func:`repro.obs.lineage.recording`, pinned by the determinism goldens.

Each distinct :class:`~repro.radio.medium.Medium` gets its own
monitor-mode :class:`~repro.dot11.capture.FrameCapture` (bounded) with
a :class:`~repro.wids.engine.WidsEngine` attached via the capture's
``tap`` — exactly the live-feed path an in-world sniffer would use.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.dot11.capture import CapturedFrame, FrameCapture
from repro.dot11.frames import Dot11Frame
from repro.obs.runtime import installed
from repro.wids.alerts import Alert
from repro.wids.engine import WidsEngine

__all__ = ["WidsWatch", "wids_watch"]


class WidsWatch:
    """One watch session: a capture + engine per observed medium."""

    def __init__(self, *, capacity: int = 4096) -> None:
        self.capacity = capacity
        # Keyed by medium identity; insertion order = first-heard order.
        self._feeds: Dict[int, Tuple[str, FrameCapture, WidsEngine]] = {}

    def _feed_for(self, medium) -> Tuple[str, FrameCapture, WidsEngine]:
        feed = self._feeds.get(id(medium))
        if feed is None:
            from repro.wids.detectors import default_detectors
            label = f"medium-{len(self._feeds)}"
            capture = FrameCapture(capacity=self.capacity)
            engine = WidsEngine(default_detectors())
            engine.attach(capture)
            feed = (label, capture, engine)
            self._feeds[id(medium)] = feed
        return feed

    def offer(self, medium, frame: Dot11Frame, channel: int, t: float) -> None:
        """Radio-layer hook: one completed transmission on ``medium``.

        RSSI is recorded as 0.0 — the ambient watch is an idealised
        sensor with no position; detectors here key on content, timing,
        and channel, never signal strength.
        """
        _label, capture, _engine = self._feed_for(medium)
        capture.add(CapturedFrame(time=t, channel=channel,
                                  rssi_dbm=0.0, frame=frame))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def feeds(self) -> List[Tuple[str, FrameCapture, WidsEngine]]:
        return list(self._feeds.values())

    def engines(self) -> List[WidsEngine]:
        return [engine for _, _, engine in self._feeds.values()]

    def alerts(self) -> List[Alert]:
        """All alerts across media, in threshold-crossing time order."""
        out: List[Alert] = []
        for _, _, engine in self._feeds.values():
            out.extend(engine.alerts)
        out.sort(key=lambda a: (a.t, a.detector, a.subject))
        return out

    def frames_seen(self) -> int:
        return sum(engine.frames_seen for engine in self.engines())


@contextmanager
def wids_watch(*, capacity: int = 4096) -> Iterator[WidsWatch]:
    """Install a fresh :class:`WidsWatch` for the duration of the block."""
    watch = WidsWatch(capacity=capacity)
    with installed(wids=watch):
        yield watch
