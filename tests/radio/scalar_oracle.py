"""The per-pair scalar propagation loops: the radio kernel's test oracle.

:class:`ScalarKernel` is the original per-(tx, rx) formulation of the
medium — ``math.hypot`` + ``math.log10`` + channel rejection recomputed
for every pair on every transmission, nothing cached.  It exposes the
same interface as :class:`repro.radio.kernel.VectorKernel`, so a test swaps
it into a medium before any port attaches::

    medium = Medium(sim)
    medium._kernel = ScalarKernel(medium)

and whole prebuilt scenarios run under it by substituting the class
``Medium`` constructs (``repro.radio.medium.VectorKernel``).  The
differential tests then require the two to agree bit for bit: same
deliveries, same exact RSSI floats, same drops, same RNG draws.
"""

from __future__ import annotations

from typing import Optional

from repro.dot11.channels import channel_rejection_db, channels_overlap

__all__ = ["ScalarKernel", "channel_rejection"]


def channel_rejection(tx_channel: int, rx) -> Optional[float]:
    """dB of attenuation rx applies to tx_channel, or None if deaf to it."""
    if rx.any_channel:
        return 0.0
    if not channels_overlap(tx_channel, rx.channel):
        return None
    return channel_rejection_db(tx_channel, rx.channel)


class ScalarKernel:
    """The original per-pair formulation, kept as the reference path."""

    def __init__(self, medium) -> None:
        self.medium = medium

    # -- invalidation hook: nothing is cached, nothing to do -----------
    def invalidate(self) -> None:
        pass

    # -- propagation ---------------------------------------------------
    def rssi(self, tx, rx) -> float:
        medium = self.medium
        distance = tx.position.distance_to(rx.position)
        return medium.path_loss.rssi_dbm(tx.tx_power_dbm, distance)

    def mark_collisions(self, new, inflight) -> None:
        medium = self.medium
        for other in inflight:
            if not channels_overlap(new.channel, other.channel):
                continue
            # At each potential receiver, the weaker of two overlapping
            # signals is corrupted; both are if within the capture margin.
            for rx in medium.ports:
                if rx is new.port or rx is other.port:
                    continue
                rssi_new = self.rssi(new.port, rx)
                rssi_other = self.rssi(other.port, rx)
                floor = medium.loss_model.hearing_floor_dbm
                if not (rssi_new >= floor and rssi_other >= floor):
                    continue
                if rssi_new - rssi_other >= medium.capture_margin_db:
                    other.collide_at(rx)
                elif rssi_other - rssi_new >= medium.capture_margin_db:
                    new.collide_at(rx)
                else:
                    new.collide_at(rx)
                    other.collide_at(rx)

    def fan_out(self, entry, m, rec, tid) -> None:
        medium = self.medium
        tx_port = entry.port
        for rx in medium.ports:
            if rx is tx_port or not rx.enabled or rx.on_receive is None:
                continue
            rejection = channel_rejection(entry.channel, rx)
            if rejection is None:
                continue
            rssi = self.rssi(tx_port, rx) - rejection
            if not rssi >= medium.loss_model.hearing_floor_dbm:
                continue
            medium._deliver(entry, rx, rssi, m, rec, tid)
