"""The shared broadcast medium.

Every :class:`RadioPort` attached to the :class:`Medium` hears every
transmission whose RSSI clears its sensitivity on an overlapping
channel — legitimate receivers, victims, sniffers, and detectors
alike.  There is no access control here because 802.11b has none;
"Wireless networks allow clients to sniff other people's packets"
(§1.1) falls straight out of the model.

Collision model: two transmissions overlapping in time on overlapping
channels corrupt each other at any receiver that hears both, unless
one is ``capture_margin_db`` stronger (physical-layer capture).  The
model is coarse — no CSMA/CA backoff — because none of the paper's
results depend on contention behaviour; experiments that need a clean
medium simply pace their traffic.

Propagation is resolved by :class:`~repro.radio.kernel.VectorKernel`,
which serves each transmitter's fan-out from a cached delivery plan
and drops every plan on any PHY change.  The tests hold it
bit-identical to a per-pair test oracle — same deliveries, same drops,
same RNG draws.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dot11.channels import channels_overlap
from repro.dot11.frames import Dot11Frame
from repro.obs.runtime import Instrumentation, instruments
from repro.radio.kernel import VectorKernel
from repro.radio.propagation import FrameLossModel, LogDistancePathLoss, Position
from repro.sim.errors import ConfigurationError
from repro.sim.kernel import Simulator

__all__ = ["Medium", "RadioPort"]

# 802.11b long-preamble PLCP overhead.
PREAMBLE_SECONDS = 192e-6
DEFAULT_BITRATE = 11_000_000.0


class RadioPort:
    """One radio attached to the medium.

    NICs (managed, master, or monitor mode) own a port; the port holds
    PHY state (position, channel, power) and the receive callback.
    Monitor-mode behaviour is selected with ``promiscuous=True`` plus
    ``any_channel=True`` if the sniffer hops/records all channels.

    PHY state that the medium's propagation kernel caches against —
    position, channel, ``any_channel``, ``enabled``, ``on_receive`` —
    is exposed through notifying properties: plain assignment (e.g.
    ``port.position = ...`` or ``port.channel = 6``) invalidates the
    kernel's delivery plans, so a cached plan can never go stale
    silently.  :meth:`move_to` is the explicit movement API; every
    position write funnels through it.
    """

    def __init__(
        self,
        name: str,
        position: Position,
        channel: int,
        *,
        tx_power_dbm: float = 15.0,
        promiscuous: bool = False,
        any_channel: bool = False,
    ) -> None:
        self.name = name
        self._position = position
        self._channel = channel
        self.tx_power_dbm = tx_power_dbm
        self.promiscuous = promiscuous
        self._any_channel = any_channel
        self._enabled = True
        # Set by the owner: called with (frame, rssi_dbm, channel).
        self._on_receive: Optional[Callable[[Dot11Frame, float, int], None]] = None
        self._medium: Optional["Medium"] = None
        # PHY counters.
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_dropped_loss = 0
        self.rx_dropped_collision = 0

    # -- kernel-notifying PHY state ------------------------------------
    def _changed(self) -> None:
        if self._medium is not None:
            self._medium._kernel.invalidate()

    @property
    def position(self) -> Position:
        return self._position

    @position.setter
    def position(self, value: Position) -> None:
        self.move_to(value)

    def move_to(self, position: Position) -> None:
        """Move the radio; the attached medium's kernel is notified so
        the very next transmission reflects the new geometry."""
        self._position = position
        self._changed()

    @property
    def channel(self) -> int:
        return self._channel

    @channel.setter
    def channel(self, value: int) -> None:
        self._channel = value
        self._changed()

    @property
    def any_channel(self) -> bool:
        return self._any_channel

    @any_channel.setter
    def any_channel(self, value: bool) -> None:
        self._any_channel = value
        self._changed()

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = value
        self._changed()

    @property
    def on_receive(self) -> Optional[Callable[[Dot11Frame, float, int], None]]:
        return self._on_receive

    @on_receive.setter
    def on_receive(self, value) -> None:
        self._on_receive = value
        self._changed()

    # -- lifecycle -----------------------------------------------------
    def attach(self, medium: "Medium") -> None:
        self._medium = medium

    def transmit(self, frame: Dot11Frame, bitrate: float = DEFAULT_BITRATE) -> None:
        """Send a frame onto the air on this port's channel."""
        if self._medium is None:
            raise ConfigurationError(f"radio {self.name!r} is not attached to a medium")
        if not self._enabled:
            return
        self._medium.transmit(self, frame, bitrate)

    def __repr__(self) -> str:
        return f"<RadioPort {self.name} ch={self._channel} at ({self._position.x:.0f},{self._position.y:.0f})>"


class _InFlight:
    """Bookkeeping for a transmission currently occupying the air.

    ``collided_at`` stays ``None`` until a collision is marked — the
    common case allocates no set and the fan-out hot path checks one
    ``is None``.
    """

    __slots__ = ("port", "channel", "start", "end", "frame", "collided_at")

    def __init__(self, port: RadioPort, channel: int, start: float,
                 end: float, frame: Dot11Frame) -> None:
        self.port = port
        self.channel = channel
        self.start = start
        self.end = end
        self.frame = frame
        self.collided_at: Optional[set[RadioPort]] = None

    def collide_at(self, rx: RadioPort) -> None:
        if self.collided_at is None:
            self.collided_at = set()
        self.collided_at.add(rx)


class Medium:
    """The 2.4 GHz band for one simulated site."""

    def __init__(
        self,
        sim: Simulator,
        loss_model: Optional[FrameLossModel] = None,
        *,
        capture_margin_db: float = 10.0,
    ) -> None:
        self.sim = sim
        self.path_loss = LogDistancePathLoss()
        self.loss_model = loss_model or FrameLossModel()
        self.capture_margin_db = capture_margin_db
        self.ports: list[RadioPort] = []
        self._inflight: list[_InFlight] = []
        self._rng = sim.rng.substream("radio.medium")
        # Per-channel medium reservation (CSMA-style deferral).
        self._busy_until: dict[int, float] = {}
        self._kernel = VectorKernel(self)

    @property
    def kernel(self) -> VectorKernel:
        """The propagation kernel (its cache is introspectable)."""
        return self._kernel

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach(self, port: RadioPort) -> RadioPort:
        if port in self.ports:
            raise ConfigurationError(f"radio {port.name!r} already attached")
        self.ports.append(port)
        self._kernel.invalidate()
        port.attach(self)
        m = instruments().metrics
        if m is not None:
            m.set_gauge("radio.ports", len(self.ports))
        return port

    def detach(self, port: RadioPort) -> None:
        if port in self.ports:
            self.ports.remove(port)
            self._kernel.invalidate()
            # Clear the back-reference so a detached port cannot keep
            # transmitting into this medium through a stale handle.
            port._medium = None
            m = instruments().metrics
            if m is not None:
                m.set_gauge("radio.ports", len(self.ports))

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def airtime(self, frame: Dot11Frame, bitrate: float) -> float:
        return PREAMBLE_SECONDS + frame.air_bytes() * 8.0 / bitrate

    def transmit(self, tx_port: RadioPort, frame: Dot11Frame, bitrate: float,
                 *, carrier_sense: bool = True) -> None:
        """Put a frame on the air, deferring while the channel is busy.

        Deferral models CSMA/CA coarsely: a transmitter waits for the
        latest reservation on any overlapping channel, plus a small
        random backoff.  ``carrier_sense=False`` transmits immediately
        (a misbehaving injector), risking collisions.
        """
        now = self.sim.now
        duration = self.airtime(frame, bitrate)
        start = now
        if carrier_sense:
            for ch, until in self._busy_until.items():
                if until > start and channels_overlap(ch, tx_port.channel):
                    start = until
            if start > now:
                start += self._rng.uniform(50e-6, 400e-6)  # DIFS + backoff slots
        obs = instruments()
        m = obs.metrics
        if m is not None:
            m.incr("radio.transmissions")
            if start > now:
                m.incr("radio.deferrals")
        rec = obs.recorder
        if rec is not None:
            if frame.trace_id is None:
                # First transmission: open the lineage (parented to the
                # frame whose delivery caused this one, if any) and keep
                # the as-transmitted bytes for pcap export.
                frame.trace_id = rec.begin("dot11", tx_port.name, now)
                with rec.suspended():
                    raw = frame.to_bytes()
                rec.attach_raw(frame.trace_id, raw)
            rec.hop("radio", "tx", trace_id=frame.trace_id,
                    host=tx_port.name, t=now, channel=tx_port.channel,
                    subtype=frame.subtype.name, src=str(frame.addr2),
                    dst=str(frame.addr1), bytes=frame.air_bytes(),
                    retry=frame.retry, deferred=start > now)
        self._busy_until[tx_port.channel] = max(
            self._busy_until.get(tx_port.channel, 0.0), start + duration
        )
        if start > now:
            self.sim.schedule_at(start, self._begin_tx, tx_port, frame, duration)
        else:
            self._begin_tx(tx_port, frame, duration)

    def _begin_tx(self, tx_port: RadioPort, frame: Dot11Frame, duration: float) -> None:
        now = self.sim.now
        entry = _InFlight(tx_port, tx_port.channel, now, now + duration, frame)
        tx_port.tx_frames += 1
        tx_port.tx_bytes += frame.air_bytes()
        self._mark_collisions(entry)
        self._inflight.append(entry)
        self.sim.schedule(duration, self._complete, entry)

    def _mark_collisions(self, new: _InFlight) -> None:
        """Resolve time-overlap between ``new`` and frames already in the air."""
        self._inflight = [e for e in self._inflight if e.end > self.sim.now]
        if self._inflight:
            self._kernel.mark_collisions(new, self._inflight)

    def _complete(self, entry: _InFlight) -> None:
        """Deliver a finished transmission to every eligible receiver."""
        obs = instruments()
        if obs.profiler is None:
            self._fan_out(entry, obs)
        else:
            with obs.profiler.span("radio.fanout"):
                self._fan_out(entry, obs)

    def _fan_out(self, entry: _InFlight, obs: Instrumentation) -> None:
        if entry in self._inflight:
            self._inflight.remove(entry)
        # Offer the frame to the ambient WIDS watch *before* any
        # per-receiver work: no RNG has been drawn for this delivery
        # yet, so observing here cannot perturb the world (the same
        # zero-perturbation placement the determinism goldens pin).
        if obs.wids is not None:
            obs.wids.offer(self, entry.frame, entry.channel, self.sim.now)
        rec = obs.recorder
        tid = entry.frame.trace_id if rec is not None else None
        self._kernel.fan_out(entry, obs.metrics, rec, tid)

    def _deliver(self, entry: _InFlight, rx: RadioPort, rssi: float,
                 m, rec, tid, p_base: Optional[float] = None) -> None:
        """Resolve one (hearable) receiver: collision, loss, delivery.

        The kernel's slow path and the per-pair test oracle both end
        here, so the observable per-receiver sequence — counters,
        metrics, recorder hops, the bernoulli draw, the callback —
        cannot drift between them.  ``p_base`` lets the kernel supply
        the success probability it precomputed from the identical RSSI
        (bit-equal to recomputing it here).
        """
        collided = entry.collided_at
        if collided is not None and rx in collided:
            rx.rx_dropped_collision += 1
            if m is not None:
                m.incr("radio.drops.collision")
            if tid is not None:
                rec.hop("radio", "drop.collision", trace_id=tid,
                        host=rx.name, t=self.sim.now)
            return
        p_ok = self.loss_model.success_probability(rssi) if p_base is None \
            else p_base
        if not self._rng.bernoulli(p_ok):
            rx.rx_dropped_loss += 1
            if m is not None:
                m.incr("radio.drops.loss")
            if tid is not None:
                rec.hop("radio", "drop.loss", trace_id=tid,
                        host=rx.name, t=self.sim.now,
                        rssi=round(rssi, 1))
            return
        rx.rx_frames += 1
        if m is not None:
            m.incr("radio.deliveries")
            m.observe("radio.rssi_dbm", rssi, lo=-100.0, hi=-20.0, bins=40)
        if tid is None:
            rx.on_receive(entry.frame, rssi, entry.channel)
        else:
            rec.hop("radio", "rx", trace_id=tid, host=rx.name,
                    t=self.sim.now, rssi=round(rssi, 1),
                    channel=entry.channel)
            # Everything the receiver does synchronously with this
            # frame — decap, IP, TCP, app, and any frames it sends
            # in response — is causally downstream of it.
            with rec.frame_context(tid):
                rx.on_receive(entry.frame, rssi, entry.channel)
