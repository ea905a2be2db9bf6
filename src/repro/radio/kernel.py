"""The radio propagation kernel: cached delivery plans, one-pass fan-out.

:class:`Medium` resolves every transmission against every attached
:class:`~repro.radio.medium.RadioPort`.  Recomputing ``math.hypot`` +
``math.log10`` + channel rejection for every receiver on every
transmission repeats work a beaconing world does thousands of times
with nothing changed, so :class:`VectorKernel` keeps one cache:

* **Delivery plans** — per transmitter, the precomputed fan-out: the
  hearable receivers in port order with their exact RSSI and frame-
  success probability.  A plan is valid while no PHY state changed
  (:meth:`VectorKernel.invalidate` clears every plan), the
  transmitter's power and the frame's channel match, and the loss-model
  parameters are unchanged.

A plan is built with one loop over ``medium.ports`` using the same
scalar ``math`` calls and op order as the per-pair loops.  Those loops
live on as a test oracle (``tests/radio/scalar_oracle.py``); the
differential harness in ``tests/radio/test_kernel_equivalence.py``
proves this kernel bit-identical to them under these RNG-order rules:

1. Path loss is deterministic, so no RNG draw depends on geometry and
   serving RSSI from a plan consumes zero draws — identical stream.
2. Delivery bernoullis replicate :meth:`SimRandom.bernoulli` exactly,
   including its no-draw shortcuts at ``p <= 0`` and ``p >= 1``.
3. Receivers are always visited in port order, so interleaved draws
   and delivery callbacks occur in the reference sequence.

Invalidation contract: ``Medium.attach``/``detach`` and any write to
``port.position`` (routed through :meth:`RadioPort.move_to`),
``port.channel``, ``port.any_channel``, ``port.enabled`` or
``port.on_receive`` call :meth:`VectorKernel.invalidate` before the
next transmission resolves, so a plan can never serve stale geometry
or deliver to a receiver that just vanished.  Mutating the loss-model
or path-loss *parameters* mid-run is caught by a per-fan-out parameter
snapshot check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dot11.channels import channel_rejection_db, channels_overlap
from repro.obs.runtime import instruments

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.radio.medium import Medium, RadioPort, _InFlight

__all__ = ["VectorKernel"]

_DEAF = float("inf")

# Memoized channel rejection: (tx_channel, rx_channel) -> dB, inf=deaf.
_REJECTION: dict = {}


def rejection_db(tx_channel: int, rx_channel: int, any_channel: bool) -> float:
    """Channel rejection in dB, with ``inf`` standing in for "deaf".

    ``any_channel`` wins before any channel validation.
    """
    if any_channel:
        return 0.0
    key = (tx_channel, rx_channel)
    cached = _REJECTION.get(key)
    if cached is None:
        if not channels_overlap(tx_channel, rx_channel):
            cached = _DEAF
        else:
            cached = channel_rejection_db(tx_channel, rx_channel)
        _REJECTION[key] = cached
    return cached


class _TxPlan:
    """One transmitter's precomputed fan-out (hearable targets in port
    order with exact RSSI and base success probability).

    ``sure`` is the delivery list stripped to 3-tuples when *every*
    target has ``p_base >= 1.0``: ``bernoulli(p >= 1)`` draws nothing,
    so the per-target probability check can be hoisted out of the hot
    loop entirely without touching the RNG stream or delivery order.
    It is ``None`` when any target can drop.
    """

    __slots__ = ("tx_power", "channel", "targets", "sure")

    def __init__(self, tx_power, channel, targets):
        self.tx_power = tx_power
        self.channel = channel
        self.targets = targets  # [(rx, on_receive, rssi, p_base), ...]
        if all(t[3] >= 1.0 for t in targets):
            self.sure = [(rx, cb, rssi) for rx, cb, rssi, _p in targets]
        else:
            self.sure = None


class VectorKernel:
    """Cached-plan fan-out kernel (bit-identical to the per-pair loops)."""

    def __init__(self, medium: "Medium") -> None:
        self.medium = medium
        self._plans: dict[int, _TxPlan] = {}    # id(tx) -> delivery plan
        self._params = self._snapshot_params()
        # Engineering counters (plan_builds is mirrored to obs when active).
        self.plan_builds = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def _snapshot_params(self):
        pl, lm = self.medium.path_loss, self.medium.loss_model
        return (pl.exponent, pl.pl_d0_db, lm.threshold_dbm, lm.width_db,
                lm.extra_loss)

    def _check_params(self) -> None:
        params = self._snapshot_params()
        if params != self._params:
            # Model parameters were mutated mid-run (e.g. an extra_loss
            # sweep): every plan is suspect.
            self._params = params
            self.invalidate()

    def invalidate(self) -> None:
        """Drop every plan (called on attach, detach and any PHY write)."""
        self._plans.clear()
        self.invalidations += 1

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def rssi(self, tx: "RadioPort", rx: "RadioPort") -> float:
        distance = tx.position.distance_to(rx.position)
        return self.medium.path_loss.rssi_dbm(tx.tx_power_dbm, distance)

    def _plan(self, tx: "RadioPort", channel: int) -> _TxPlan:
        plan = self._plans.get(id(tx))
        if (plan is not None and plan.tx_power == tx.tx_power_dbm
                and plan.channel == channel):
            return plan
        medium = self.medium
        power = tx.tx_power_dbm
        path_loss = medium.path_loss.path_loss_db
        audible = medium.loss_model.hearing_floor_dbm
        success = medium.loss_model.success_probability
        origin = tx.position
        targets = []
        for rx in medium.ports:
            if rx is tx or not rx.enabled or rx.on_receive is None:
                continue
            rejection = rejection_db(channel, rx.channel, rx.any_channel)
            if rejection == _DEAF:
                continue
            # The oracle's op order: (power - path loss) - rejection.
            rssi = (power - path_loss(origin.distance_to(rx.position))) \
                - rejection
            if rssi >= audible:
                targets.append((rx, rx.on_receive, rssi, success(rssi)))
        plan = _TxPlan(power, channel, targets)
        if tx._medium is not medium:
            # The frame was in flight when its transmitter detached: a
            # plan keyed by a freed port's id could be inherited by
            # whatever object recycles the address, so serve it without
            # caching.
            return plan
        self._plans[id(tx)] = plan
        self.plan_builds += 1
        m = instruments().metrics
        if m is not None:
            m.incr("radio.kernel.plan_builds")
        return plan

    # ------------------------------------------------------------------
    # fan-out
    # ------------------------------------------------------------------
    def fan_out(self, entry: "_InFlight", m, rec, tid) -> None:
        medium = self.medium
        self._check_params()
        plan = self._plan(entry.port, entry.channel)
        if m is None and tid is None and entry.collided_at is None:
            # The hot path: nothing to observe, nothing collided —
            # delivery is bernoulli + callback per target.
            # ``rand() >= p`` consumes exactly the draw bernoulli(p)
            # would (and p<=0 / p>=1 skip the draw, like bernoulli).
            frame, channel = entry.frame, entry.channel
            if plan.sure is not None:
                # Every target delivers with certainty: no draws at all
                # (matching bernoulli's p >= 1 shortcut), so the loop is
                # counter + callback and nothing else.
                for rx, on_receive, rssi in plan.sure:
                    rx.rx_frames += 1
                    on_receive(frame, rssi, channel)
                return
            rand = medium._rng._random.random
            for rx, on_receive, rssi, p in plan.targets:
                if p < 1.0:
                    if p <= 0.0 or rand() >= p:
                        rx.rx_dropped_loss += 1
                        continue
                rx.rx_frames += 1
                on_receive(frame, rssi, channel)
            return
        deliver = medium._deliver
        for rx, _on_receive, rssi, p in plan.targets:
            deliver(entry, rx, rssi, m, rec, tid, p_base=p)

    # ------------------------------------------------------------------
    # collisions
    # ------------------------------------------------------------------
    def mark_collisions(self, new: "_InFlight", inflight) -> None:
        """At each receiver that hears both of two time-overlapping
        frames on overlapping channels, the weaker is corrupted; both
        are if within the capture margin."""
        medium = self.medium
        margin = medium.capture_margin_db
        floor = medium.loss_model.hearing_floor_dbm
        rssi = self.rssi
        for other in inflight:
            if not channels_overlap(new.channel, other.channel):
                continue
            for rx in medium.ports:
                if rx is new.port or rx is other.port:
                    continue
                rssi_new = rssi(new.port, rx)
                rssi_other = rssi(other.port, rx)
                if not (rssi_new >= floor and rssi_other >= floor):
                    continue
                if rssi_new - rssi_other >= margin:
                    other.collide_at(rx)
                elif rssi_other - rssi_new >= margin:
                    new.collide_at(rx)
                else:
                    new.collide_at(rx)
                    other.collide_at(rx)

    # ------------------------------------------------------------------
    # introspection (tests, obs)
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        return {
            "plans": len(self._plans),
            "plan_builds": self.plan_builds,
            "invalidations": self.invalidations,
        }
