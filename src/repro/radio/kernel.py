"""The radio propagation kernel: cached geometry, batched fan-out.

:class:`Medium` resolves every transmission against every attached
:class:`~repro.radio.medium.RadioPort`.  Recomputing ``math.hypot`` +
``math.log10`` + channel rejection for every pair on every
transmission makes dense worlds intractable, so :class:`VectorKernel`
never recomputes geometry that has not changed:

* **Pair path-loss rows** — for each transmitter, the path loss to
  every attached port, computed once with the exact scalar ``math``
  calls and then reused.  Rows are maintained
  incrementally: ``attach`` appends one pair per cached row, ``detach``
  deletes one column, and a station *move* updates only that station's
  column in every cached row (and drops the mover's own row).  NumPy
  is used only for IEEE-exact operations (elementwise add/sub/compare),
  never for ``hypot``/``log10``, which differ from ``math`` by 1 ULP on
  ~1% of inputs and would break bit-identity with the per-pair loops.
* **Rejection rows** — per transmit channel, the dB of channel
  rejection each receiver applies (``inf`` = deaf), updated in place
  when a port retunes.
* **Delivery plans** — per transmitter, the precomputed fan-out: the
  hearable receivers in port order with their exact RSSI and frame-
  success probability.  A plan is valid while the kernel's version
  counter, the transmitter's power/channel, and the loss-model
  parameters are unchanged.

The per-pair loops live on as a test oracle
(``tests/radio/scalar_oracle.py``); the differential harness in
``tests/radio/test_kernel_equivalence.py`` proves this kernel
bit-identical to them under these RNG-order rules:

1. Path loss is deterministic, so no RNG draw depends on geometry and
   serving RSSI from cache consumes zero draws — identical stream.
2. Delivery bernoullis replicate :meth:`SimRandom.bernoulli` exactly,
   including its no-draw shortcuts at ``p <= 0`` and ``p >= 1``.
3. Receivers are always visited in port order, so interleaved draws
   and delivery callbacks occur in the reference sequence.

Invalidation contract: any write to ``port.position`` (routed through
:meth:`RadioPort.move_to`), ``port.channel``, ``port.any_channel``,
``port.enabled`` or ``port.on_receive`` notifies the kernel before the
next transmission resolves, so a cache can never serve stale geometry
or deliver to a receiver that just vanished.  Mutating the loss-model
or path-loss *parameters* mid-run is caught by a per-fan-out parameter
snapshot check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.dot11.channels import channel_rejection_db, channels_overlap
from repro.obs.runtime import instruments

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.radio.medium import Medium, RadioPort, _InFlight

__all__ = ["VectorKernel"]

_DEAF = float("inf")

# Bounds on cached state so a world where every one of 10k stations
# transmits once cannot hold O(N^2) floats; eviction is oldest-first.
_MAX_ROWS = 128
_MAX_PLANS = 128

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

    __slots__ = ("version", "tx_power", "channel", "targets", "sure")

    def __init__(self, version, tx_power, channel, targets):
        self.version = version
        self.tx_power = tx_power
        self.channel = channel
        self.targets = targets  # [(rx, on_receive, rssi, p_base), ...]
        if all(t[3] >= 1.0 for t in targets):
            self.sure = [(rx, cb, rssi) for rx, cb, rssi, _p in targets]
        else:
            self.sure = None


class VectorKernel:
    """Cached-geometry, batched fan-out kernel (bit-identical to the
    per-pair loops)."""

    def __init__(self, medium: "Medium") -> None:
        self.medium = medium
        self._idx: dict[int, int] = {}          # id(port) -> index
        self._pl_rows: dict[int, object] = {}   # id(tx) -> base-loss row
        self._rej_rows: dict[int, object] = {}  # tx channel -> rejection row
        self._plans: dict[int, _TxPlan] = {}    # id(tx) -> delivery plan
        self._version = 0
        self._params = self._snapshot_params()
        # Engineering counters (plain ints; mirrored to obs when active).
        self.row_builds = 0
        self.row_updates = 0
        self.plan_builds = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # parameter safety net
    # ------------------------------------------------------------------
    def _snapshot_params(self):
        pl, lm = self.medium.path_loss, self.medium.loss_model
        return (pl.exponent, pl.pl_d0_db, lm.threshold_dbm, lm.width_db,
                lm.extra_loss)

    def _check_params(self) -> None:
        params = self._snapshot_params()
        if params != self._params:
            # Model parameters were mutated mid-run (e.g. an extra_loss
            # sweep): every cached product is suspect.  Full reset.
            self._params = params
            self._pl_rows.clear()
            self._plans.clear()
            self._bump()

    def _bump(self) -> None:
        self._version += 1
        self.invalidations += 1

    # ------------------------------------------------------------------
    # invalidation hooks (called by Medium / RadioPort setters)
    # ------------------------------------------------------------------
    def on_attach(self, port) -> None:
        ports = self.medium.ports
        k = len(ports) - 1          # Medium appended before notifying
        self._idx[id(port)] = k
        port_of = self._port_of
        for tx_id, row in self._pl_rows.items():
            value = self._pair_base_loss(port_of(tx_id), port)
            self._pl_rows[tx_id] = np.append(row, value)
        for channel, row in self._rej_rows.items():
            value = rejection_db(channel, port.channel, port.any_channel)
            self._rej_rows[channel] = np.append(row, value)
        self._bump()
        self._record_sizes()

    def on_detach(self, port) -> None:
        k = self._idx.pop(id(port), None)
        if k is None:
            return
        for pid, i in self._idx.items():
            if i > k:
                self._idx[pid] = i - 1
        self._pl_rows.pop(id(port), None)
        self._plans.pop(id(port), None)
        for tx_id, row in self._pl_rows.items():
            self._pl_rows[tx_id] = np.delete(row, k)
        for channel, row in self._rej_rows.items():
            self._rej_rows[channel] = np.delete(row, k)
        self._bump()
        self._record_sizes()

    def on_move(self, port) -> None:
        k = self._idx.get(id(port))
        if k is None:
            return
        # Per-station invalidation: refresh only the mover's column in
        # every cached row; the mover's own row is dropped (rebuilt
        # lazily the next time it transmits).
        self._pl_rows.pop(id(port), None)
        port_of = self._port_of
        for tx_id, row in self._pl_rows.items():
            row[k] = self._pair_base_loss(port_of(tx_id), port)
            self.row_updates += 1
        self._bump()

    def on_phy_change(self, port) -> None:
        k = self._idx.get(id(port))
        if k is None:
            return
        for channel, row in self._rej_rows.items():
            row[k] = rejection_db(channel, port.channel, port.any_channel)
        self._bump()

    def _port_of(self, port_id: int) -> "RadioPort":
        return self.medium.ports[self._idx[port_id]]

    def _record_sizes(self) -> None:
        m = instruments().metrics
        if m is not None:
            m.set_gauge("radio.kernel.pl_rows", len(self._pl_rows))
            m.set_gauge("radio.kernel.plans", len(self._plans))

    # ------------------------------------------------------------------
    # cached geometry
    # ------------------------------------------------------------------
    def _pair_base_loss(self, tx, rx) -> float:
        """Pair path loss, exact scalar computation.

        Delegates to :meth:`LogDistancePathLoss.path_loss_db` so the
        cached value is bit-identical to the reference — including the
        0.1 m distance clamp.
        """
        distance = tx.position.distance_to(rx.position)
        return self.medium.path_loss.path_loss_db(distance)

    def _row(self, tx):
        row = self._pl_rows.get(id(tx))
        if row is not None:
            return row
        ports = self.medium.ports
        row = np.asarray([self._pair_base_loss(tx, rx) for rx in ports])
        if id(tx) not in self._idx:
            # The frame was in flight when its transmitter detached.
            # Compute the geometry but never cache it: no on_detach will
            # ever pop a row keyed by a detached port, and on_move /
            # on_attach refresh columns via _port_of on the premise that
            # every cached row's transmitter is attached.
            return row
        if len(self._pl_rows) >= _MAX_ROWS:
            self._pl_rows.pop(next(iter(self._pl_rows)))
        self._pl_rows[id(tx)] = row
        self.row_builds += 1
        m = instruments().metrics
        if m is not None:
            m.incr("radio.kernel.row_builds")
            m.set_gauge("radio.kernel.pl_rows", len(self._pl_rows))
        return row

    def _rej_row(self, channel: int):
        row = self._rej_rows.get(channel)
        if row is not None:
            return row
        row = np.asarray([rejection_db(channel, rx.channel, rx.any_channel)
                           for rx in self.medium.ports])
        self._rej_rows[channel] = row
        return row

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def rssi(self, tx: "RadioPort", rx: "RadioPort") -> float:
        self._check_params()
        tx_id, rx_id = id(tx), id(rx)
        if tx_id in self._idx and rx_id in self._idx:
            base = float(self._row(tx)[self._idx[rx_id]])
        else:
            # Either side is not attached here: pure geometry, uncached.
            base = self._pair_base_loss(tx, rx)
        return tx.tx_power_dbm - base

    def _plan(self, tx: "RadioPort") -> _TxPlan:
        plan = self._plans.get(id(tx))
        if (plan is not None and plan.version == self._version
                and plan.tx_power == tx.tx_power_dbm
                and plan.channel == tx.channel):
            return plan
        medium = self.medium
        row = self._row(tx)
        rej = self._rej_row(tx.channel)
        power = tx.tx_power_dbm
        ports = medium.ports
        # Per-pair op order per receiver:
        #   rssi = (power - base_loss) - rejection
        # numpy add/sub/compare are IEEE-exact, so the batched floats
        # are bit-identical to computing each pair on its own.
        audible = medium.loss_model.hearing_floor_dbm
        success = medium.loss_model.success_probability
        targets = []
        rssi_row = (power - row) - rej
        hear = rssi_row >= audible
        tx_k = self._idx.get(id(tx))
        if tx_k is not None:
            hear[tx_k] = False
        for k in np.flatnonzero(hear):
            rx = ports[k]
            if not rx.enabled or rx.on_receive is None:
                continue
            rssi = float(rssi_row[k])
            targets.append((rx, rx.on_receive, rssi, success(rssi)))
        plan = _TxPlan(self._version, power, tx.channel, targets)
        if id(tx) not in self._idx:
            # Detached mid-flight (see _row): a plan keyed by a freed
            # port's id could be inherited by whatever object recycles
            # the address, so serve it without caching.
            return plan
        if len(self._plans) >= _MAX_PLANS:
            self._plans.pop(next(iter(self._plans)))
        self._plans[id(tx)] = plan
        self.plan_builds += 1
        m = instruments().metrics
        if m is not None:
            m.incr("radio.kernel.plan_builds")
            m.set_gauge("radio.kernel.plans", len(self._plans))
        return plan

    # ------------------------------------------------------------------
    # fan-out
    # ------------------------------------------------------------------
    def fan_out(self, entry: "_InFlight", m, rec, tid) -> None:
        medium = self.medium
        self._check_params()
        plan = self._plan(entry.port)
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
        self._check_params()
        for other in inflight:
            if channels_overlap(new.channel, other.channel):
                self._collide_pair(new, other)

    def _collide_pair(self, new, other) -> None:
        medium = self.medium
        ports = medium.ports
        margin = medium.capture_margin_db
        audible = medium.loss_model.hearing_floor_dbm
        row_new = self._row(new.port)
        row_other = self._row(other.port)
        p_new, p_other = new.port.tx_power_dbm, other.port.tx_power_dbm
        rssi_new = p_new - row_new
        rssi_other = p_other - row_other
        hear = (rssi_new >= audible) & (rssi_other >= audible)
        for key in (id(new.port), id(other.port)):
            k = self._idx.get(key)
            if k is not None:
                hear[k] = False
        for k in np.flatnonzero(hear):
            rn, ro = float(rssi_new[k]), float(rssi_other[k])
            rx = ports[k]
            if rn - ro >= margin:
                other.collide_at(rx)
            elif ro - rn >= margin:
                new.collide_at(rx)
            else:
                new.collide_at(rx)
                other.collide_at(rx)

    # ------------------------------------------------------------------
    # introspection (tests, obs)
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        return {
            "version": self._version,
            "pl_rows": len(self._pl_rows),
            "rej_rows": len(self._rej_rows),
            "plans": len(self._plans),
            "row_builds": self.row_builds,
            "row_updates": self.row_updates,
            "plan_builds": self.plan_builds,
            "invalidations": self.invalidations,
        }
