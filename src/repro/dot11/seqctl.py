"""802.11 sequence-control counters.

Every 802.11 transmitter stamps frames from a single, monotonically
increasing 12-bit sequence counter.  Paper §2.3: rogue-AP detection
techniques "rely on monitoring 802.11b Sequence Control numbers" —
two devices sharing one MAC/BSSID (a spoofer and the real AP) produce
*interleaved* counter streams that a monitor can tell apart, which is
also the basis of Wright's MAC-spoof detection (paper reference [15]).

:class:`SequenceCounter` is that counter; the detectors live in
:mod:`repro.wids.detectors`.  :class:`MirroredSequenceCounter` is the
evasion-side counter: an attacker radio that overhears the legitimate
transmitter and stamps its own frames as plausible successors, keeping
the merged stream's gaps small.
"""

from __future__ import annotations

__all__ = ["MirroredSequenceCounter", "SequenceCounter", "SEQ_MODULO"]

SEQ_MODULO = 4096  # 12-bit sequence number space


class SequenceCounter:
    """Per-transmitter 12-bit sequence number generator.

    Parameters
    ----------
    start:
        Initial value; real NICs start at an arbitrary point after
        power-up, so scenario code seeds this from the RNG.
    """

    def __init__(self, start: int = 0) -> None:
        self._next = start % SEQ_MODULO

    def next(self) -> int:
        """Return the current number and advance (wraps at 4096)."""
        value = self._next
        self._next = (self._next + 1) % SEQ_MODULO
        return value

    def peek(self) -> int:
        """The number the next frame will carry (monitor-side diagnostics)."""
        return self._next

    @staticmethod
    def gap(a: int, b: int) -> int:
        """Forward distance from sequence number ``a`` to ``b`` (mod 4096).

        A healthy single transmitter produces small positive gaps
        (usually 1, a bit more under retransmission); an interleaved
        second transmitter produces large, erratic gaps — the signal
        the §2.3 detector keys on.
        """
        return (b - a) % SEQ_MODULO


class MirroredSequenceCounter:
    """Seqctl-mirroring evasion: shadow the victim transmitter's counter.

    A rogue's answer to sequence-control monitoring (the stealth
    techniques surveyed in the rogue-AP evasion literature): instead of
    stamping frames from an independent counter — whose interleaving
    with the cloned transmitter's stream produces the large gaps the
    monitor flags — the attacker *overhears* the legitimate station and
    stamps every injected frame as the successor of the last overheard
    number.  Merged-stream gaps collapse to 0 and 1, under the radar of
    any large-gap heuristic.  (Duplicate numbers remain: perfect
    mirroring is detectable in principle, just not by gap analysis —
    exactly the asymmetry the WIDS evaluation measures.)

    API-compatible with :class:`SequenceCounter` (``next``/``peek``)
    so it can be injected anywhere a real counter is used.
    """

    def __init__(self) -> None:
        self._last_overheard = 0

    def observe(self, seq: int) -> None:
        """Record a sequence number overheard from the mirrored victim."""
        self._last_overheard = seq % SEQ_MODULO

    def next(self) -> int:
        """Claim the successor of the last overheard number.

        Unlike a real counter this does not self-advance: with nothing
        new overheard, consecutive injected frames repeat the same
        plausible value rather than running ahead of the victim.
        """
        return (self._last_overheard + 1) % SEQ_MODULO

    def peek(self) -> int:
        return (self._last_overheard + 1) % SEQ_MODULO
