"""The campaign shard: one seed's slice-driven open-loop world.

:class:`OpenLoopShard` is the trial callable that ``python -m repro
serve`` hands to :func:`repro.fleet.run_campaign`.  Each shard builds
the Fig. 1 corporate world (rogue included unless disabled), arms the
§4.1 download MITM, watches the air with the WIDS, and offers
Poisson-arrival sessions via :class:`~repro.telemetry.sessions.
OpenLoopSessions` for ``duration_s`` simulated seconds.

**Slice-driven publishing.**  The shard never lets the exporter touch
the event loop.  It advances the simulator in fixed slices::

    while now < t_end:
        sim.run(until=min(now + snapshot_every_s, t_end))
        tick()          # registry writes + fleet_publish, between runs

``sim.run(until=...)`` composes exactly (the kernel's inclusive-``until``
contract), and the slicing schedule is *identical whether or not a
publisher is installed*, so exporter-on and exporter-off runs execute
the same event sequence bit for bit.  The determinism golden in
``tests/telemetry/test_daemon.py`` pins this.

**Replay equivalence.**  Snapshots are cumulative — each ``tick``
publishes the whole registry, not a delta — and the final publish is
the last registry-mutating act of the trial.  The last snapshot a
listener sees for a seed therefore equals the trial's own
``ObservedTrial`` snapshot, which is what makes the JSON-lines
stream replayable to the exact in-process merged view.

**Graceful stop.**  ``request_stop()`` raises a module-level flag that
every shard checks between slices; a stopping shard cancels arrivals,
drains in-flight sessions, and returns its summary as if the clock had
run out.  In-process (serial / daemon) campaigns observe the flag
directly; forked workers each inherit a copy at spawn, so parallel
serves additionally rely on the per-trial timeout for hard stops.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.core.scenario import build_corp_scenario
from repro.fleet.channel import fleet_publish
from repro.obs.runtime import instruments
from repro.telemetry.sessions import OpenLoopSessions
from repro.wids.runtime import wids_watch

__all__ = ["OpenLoopShard", "clear_stop", "request_stop", "stop_requested"]

#: How long a shard keeps simulating after load stops, so in-flight
#: sessions can finish or time out (HttpClient's timeout is 30 s).
DRAIN_S = 35.0

_stop = threading.Event()


def request_stop() -> None:
    """Ask every in-process shard to drain and return early."""
    _stop.set()


def stop_requested() -> bool:
    return _stop.is_set()


def clear_stop() -> None:
    _stop.clear()


class OpenLoopShard:
    """Picklable trial: seed → open-loop campaign summary dict.

    Parameters mirror the ``serve`` CLI.  ``rate_per_s`` is *this
    shard's* share of the campaign rate; the CLI divides the requested
    total across shards.
    """

    def __init__(self, *, duration_s: float, rate_per_s: float,
                 max_sessions: Optional[int] = None,
                 download_fraction: float = 0.2,
                 max_clients: int = 64,
                 snapshot_every_s: float = 1.0,
                 with_rogue: bool = True) -> None:
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        if snapshot_every_s <= 0:
            raise ValueError(
                f"snapshot cadence must be positive, got {snapshot_every_s}")
        self.duration_s = duration_s
        self.rate_per_s = rate_per_s
        self.max_sessions = max_sessions
        self.download_fraction = download_fraction
        self.max_clients = max_clients
        self.snapshot_every_s = snapshot_every_s
        self.with_rogue = with_rogue

    def __call__(self, seed: int) -> dict:
        scenario = build_corp_scenario(seed, with_rogue=self.with_rogue)
        if scenario.rogue is not None:
            scenario.arm_download_mitm()
        sim = scenario.sim
        with wids_watch() as watch:
            gen = OpenLoopSessions(
                scenario, rate_per_s=self.rate_per_s,
                max_sessions=self.max_sessions,
                download_fraction=self.download_fraction,
                max_clients=self.max_clients)
            gen.start()
            t_end = sim.now + self.duration_s
            stopped = self._advance(sim, watch, t_end)
            gen.stop()
            # The drain ignores the stop flag: stopping means "offer no
            # more load", never "abandon in-flight users mid-session".
            self._advance(sim, watch, sim.now + DRAIN_S, heed_stop=False)
            self._tick(watch)  # final: ships the end-of-run registry
        summary = gen.summary()
        summary["stopped_early"] = stopped
        summary["alerts"] = len(watch.alerts())
        summary["frames_seen"] = watch.frames_seen()
        return summary

    # ------------------------------------------------------------------
    # the slice loop
    # ------------------------------------------------------------------
    def _advance(self, sim, watch, t_end: float, *,
                 heed_stop: bool = True) -> bool:
        """Run to ``t_end`` in snapshot-cadence slices; True if stopped.

        The slice boundaries depend only on ``sim.now``, the cadence and
        ``t_end`` — never on whether anyone is listening — so the event
        schedule is invariant under exporters (zero-perturbation).
        """
        while sim.now < t_end:
            if heed_stop and stop_requested():
                return True
            sim.run(until=min(sim.now + self.snapshot_every_s, t_end))
            self._tick(watch)
        return False

    def _tick(self, watch) -> None:
        """Fold WIDS state into the registry, then publish it upstream."""
        metrics = instruments().metrics
        if metrics is not None:
            alerts = watch.alerts()
            emitted = metrics.counter("telemetry.alerts.emitted")
            delta = len(alerts) - emitted.value
            if delta > 0:
                emitted.incr(delta)
            if alerts:
                metrics.set_gauge("telemetry.alerts.first_t_s", alerts[0].t)
            metrics.set_gauge("telemetry.campaign.duration_s",
                              self.duration_s)
            # Publish LAST: the shipped snapshot must contain every write
            # above, and on the final tick must equal the trial's own
            # end-of-run snapshot (the JSON-lines replay contract).
            fleet_publish(metrics.snapshot())
