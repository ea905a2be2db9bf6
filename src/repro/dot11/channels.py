"""802.11b channelization (2.4 GHz ISM band).

Figure 1 of the paper places the legitimate AP on channel 1 and the
rogue on channel 6 — non-overlapping channels, so the rogue's own
client radio can stay associated to the real network while its master-
mode radio serves victims without self-interference.  The overlap
model here captures that: adjacent channels bleed into each other,
channels ≥ 5 apart do not.
"""

from __future__ import annotations

__all__ = [
    "CHANNELS_11B",
    "channel_center_mhz",
    "channel_rejection_db",
    "channels_overlap",
]

# North-American 802.11b channels.
CHANNELS_11B = tuple(range(1, 12))

_BASE_MHZ = 2407  # channel n center = 2407 + 5n MHz (n = 1..13)
_CH14_MHZ = 2484


def channel_center_mhz(channel: int) -> int:
    """Center frequency of an 802.11b channel in MHz."""
    if channel == 14:
        return _CH14_MHZ
    if not 1 <= channel <= 13:
        raise ValueError(f"invalid 802.11b channel: {channel}")
    return _BASE_MHZ + 5 * channel


def channels_overlap(a: int, b: int) -> bool:
    """True if energy on channel ``a`` is visible on channel ``b``.

    802.11b signals are ~22 MHz wide on a 5 MHz channel grid, so
    channels closer than 5 apart overlap (hence the classic 1/6/11
    non-overlapping plan).
    """
    return abs(channel_center_mhz(a) - channel_center_mhz(b)) < 25


def channel_rejection_db(a: int, b: int) -> float:
    """Extra attenuation a receiver tuned to ``b`` sees for a signal on ``a``.

    0 dB co-channel, growing roughly linearly with separation; returns
    ``inf`` for non-overlapping channels (the receiver hears nothing).
    A coarse but standard piecewise model — the experiments only need
    "same channel: loud, adjacent: attenuated, far: silent".
    """
    sep_mhz = abs(channel_center_mhz(a) - channel_center_mhz(b))
    if sep_mhz == 0:
        return 0.0
    if sep_mhz >= 25:
        return float("inf")
    # ~2 dB of rejection per MHz of separation beyond the first 5.
    return max(0.0, (sep_mhz - 5) * 2.0) + 3.0
