"""Path loss and frame-error models.

A deterministic log-distance path-loss model — the standard indoor
WLAN abstraction — plus a logistic RSSI→frame-success curve standing
in for the modulation/coding chain.  Nothing in
the paper depends on PHY details finer than "closer rogue, stronger
signal, client prefers it", so the models stay deliberately simple and
fully documented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Position", "LogDistancePathLoss", "FrameLossModel"]


@dataclass(frozen=True)
class Position:
    """A point in the 2-D floor plan, in metres."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def moved(self, dx: float, dy: float) -> "Position":
        return Position(self.x + dx, self.y + dy)


class LogDistancePathLoss:
    """PL(d) = PL(d0) + 10·n·log10(d/d0).

    Parameters
    ----------
    exponent:
        Path-loss exponent ``n``; ~2 free space, 3–4 indoors through
        walls.  Default 3.0 (office).

    ``pl_d0_db`` is the loss at the reference distance d0 = 1 m: 40 dB,
    the 2.4 GHz free-space value.

    The model draws no randomness: experiments inject loss explicitly
    through :class:`FrameLossModel` instead.
    """

    def __init__(self, exponent: float = 3.0) -> None:
        if exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        self.exponent = exponent
        self.pl_d0_db = 40.0

    def path_loss_db(self, distance_m: float) -> float:
        """Total loss in dB at ``distance_m`` (≥ 0.1 m clamp)."""
        d = max(distance_m, 0.1)
        return self.pl_d0_db + 10.0 * self.exponent * math.log10(d)

    def rssi_dbm(self, tx_power_dbm: float, distance_m: float) -> float:
        """Received signal strength for a transmit power and distance."""
        return tx_power_dbm - self.path_loss_db(distance_m)


class FrameLossModel:
    """Logistic RSSI → frame-success curve with an extra-loss knob.

    ``p_success = sigmoid((rssi - threshold)/width) * (1 - extra_loss)``

    ``threshold_dbm`` approximates 802.11b receiver sensitivity at
    11 Mb/s (-88 dBm typical for period cards); ``extra_loss`` is the
    experiment-controlled impairment used by the VPN-overhead sweep.
    """

    def __init__(
        self,
        threshold_dbm: float = -88.0,
        width_db: float = 2.0,
        extra_loss: float = 0.0,
    ) -> None:
        if not 0.0 <= extra_loss < 1.0:
            raise ValueError("extra_loss must be in [0, 1)")
        self.threshold_dbm = threshold_dbm
        self.width_db = width_db
        self.extra_loss = extra_loss

    def success_probability(self, rssi_dbm: float) -> float:
        margin = (rssi_dbm - self.threshold_dbm) / self.width_db
        # Clamp to avoid overflow in exp for very strong/weak signals.
        if margin > 30:
            base = 1.0
        elif margin < -30:
            base = 0.0
        else:
            base = 1.0 / (1.0 + math.exp(-margin))
        return base * (1.0 - self.extra_loss)

    @property
    def hearing_floor_dbm(self) -> float:
        """Weakest detectable signal: 10 dB below the threshold.

        A receiver hears a frame (and a collision can corrupt it) only
        at ``rssi >= hearing_floor_dbm``.
        """
        return self.threshold_dbm - 10.0
