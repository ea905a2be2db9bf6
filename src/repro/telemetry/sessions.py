"""Open-loop client-session generation: arrival rates, not trial counts.

The paper's experiments run a fixed victim through a fixed script.  A
production WLAN instead sees a *process* of users: laptops arrive,
associate (to whichever AP wins — legitimate or rogue), browse or
download, and leave, at a rate that does not care how the network is
coping.  :class:`OpenLoopSessions` drives exactly that against any
:class:`~repro.core.scenario.CorpScenario` world:

* arrivals are Poisson (exponential inter-arrival times from a dedicated
  RNG substream, so the generator never perturbs other consumers of the
  simulation stream);
* the load is **open-loop**: the next arrival is armed when the current
  one lands, never when a session finishes — a slow network gets *more*
  concurrency, not a gentler schedule (the Locust pattern the ROADMAP's
  telemetry item names);
* each session joins through the 802.11 state machine at a freshly
  drawn position, so a fraction of the population lands on the rogue AP
  and experiences the Fig. 2 MITM under load;
* everything observable lands in the ambient
  :class:`~repro.obs.metrics.MetricsRegistry` under ``telemetry.*`` —
  counters for the session funnel, a latency histogram for the
  percentile scorecards — and every metric obeys the fleet merge law.

Clients are pooled: a finished session returns its station to an idle
pool and the next arrival reuses it (same NIC, same IP, possibly moved)
rather than growing the world without bound.  When the pool is
exhausted and the address plan is full, the arrival is *shed* and
counted — open-loop load generators must measure the load they failed
to offer, or saturation looks like success.
"""

from __future__ import annotations

from typing import Optional

from repro.core.scenario import CorpScenario, GATEWAY_IP, TARGET_IP
from repro.hosts.station import Station
from repro.httpsim.browser import Browser
from repro.httpsim.client import HttpClient
from repro.obs.runtime import instruments
from repro.radio.propagation import Position

__all__ = ["OpenLoopSessions", "LATENCY_METRIC", "LATENCY_BINS",
           "LATENCY_HI_S"]

#: The session-latency histogram: 0..LATENCY_HI_S seconds, LATENCY_BINS
#: bins.  Shared between the generator (writer) and the scorecard
#: (reader) so fleet merges never hit a binning mismatch.
LATENCY_METRIC = "telemetry.session.latency_s"
LATENCY_HI_S = 40.0
LATENCY_BINS = 160

#: Station IPs are allocated from 10.0.0.<_IP_FIRST>.. upward on the
#: /24 the corp gateway serves; the ceiling caps the client pool.
_IP_FIRST = 100
_IP_LAST = 250


class _Session:
    """One user's visit: arrival time, chosen activity, completion."""

    __slots__ = ("t_arrival", "kind", "station")

    def __init__(self, t_arrival: float, kind: str, station: Station) -> None:
        self.t_arrival = t_arrival
        self.kind = kind
        self.station = station


class OpenLoopSessions:
    """Poisson-arrival join/browse/download sessions over a corp world.

    Parameters
    ----------
    scenario:
        The world to offer load to (built by ``build_corp_scenario``;
        with or without a rogue).
    rate_per_s:
        Mean arrival rate, sessions per simulated second.
    max_sessions:
        Stop arming arrivals after this many (``None`` = unbounded; the
        campaign's duration bound then ends the load).
    download_fraction:
        Probability an arriving user runs the full §4.1
        download-verify-run flow instead of a single page view.
    max_clients:
        Ceiling on distinct pooled stations (bounded by the /24 address
        plan); arrivals beyond pool + plan capacity are shed.
    assoc_timeout_s:
        How long a joining station may scan/associate before the
        session counts as failed and the station is retired.
    """

    def __init__(self, scenario: CorpScenario, *, rate_per_s: float,
                 max_sessions: Optional[int] = None,
                 download_fraction: float = 0.2,
                 max_clients: int = 64,
                 assoc_timeout_s: float = 10.0) -> None:
        if rate_per_s <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate_per_s}")
        if not 0.0 <= download_fraction <= 1.0:
            raise ValueError("download_fraction must be in [0, 1]")
        self.scenario = scenario
        self.sim = scenario.sim
        self.rate_per_s = rate_per_s
        self.max_sessions = max_sessions
        self.download_fraction = download_fraction
        self.max_clients = min(max_clients, _IP_LAST - _IP_FIRST + 1)
        self.assoc_timeout_s = assoc_timeout_s
        self.rng = self.sim.rng.substream("telemetry.sessions")
        # Funnel counters (also mirrored into the ambient registry).
        self.arrived = 0
        self.started = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0
        self.compromised = 0
        self.active = 0
        self.latency_sum_s = 0.0
        self._clients_created = 0
        self._idle: list[Station] = []
        self._stopped = False
        self._pending_arrival = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the first arrival (one inter-arrival gap from now)."""
        self._arm_next()

    def stop(self) -> None:
        """Stop offering load: cancel the armed arrival, keep sessions."""
        self._stopped = True
        if self._pending_arrival is not None:
            self._pending_arrival.cancel()
            self._pending_arrival = None

    # ------------------------------------------------------------------
    # the arrival process
    # ------------------------------------------------------------------
    def _arm_next(self) -> None:
        if self._stopped:
            return
        if self.max_sessions is not None and self.arrived >= self.max_sessions:
            return
        gap = self.rng.expovariate(self.rate_per_s)
        self._pending_arrival = self.sim.schedule(gap, self._arrive)

    def _arrive(self) -> None:
        self._pending_arrival = None
        self.arrived += 1
        self._arm_next()  # open loop: independent of session progress
        self._incr("telemetry.sessions.arrived")
        kind = ("download" if self.rng.random() < self.download_fraction
                else "browse")
        position = Position(self.rng.uniform(12.0, 55.0),
                            self.rng.uniform(-8.0, 8.0))
        station = self._checkout(position)
        if station is None:
            self.shed += 1
            self._incr("telemetry.sessions.shed")
            return
        session = _Session(self.sim.now, kind, station)
        self.started += 1
        self.active += 1
        self._incr("telemetry.sessions.started")
        self._gauge("telemetry.sessions.active", self.active)
        if station.wlan.associated:
            self._run_activity(session)
        else:
            self._await_association(session)

    # ------------------------------------------------------------------
    # the client pool
    # ------------------------------------------------------------------
    def _checkout(self, position: Position) -> Optional[Station]:
        if self._idle:
            station = self._idle.pop()
            station.move_to(position)
            return station
        if self._clients_created >= self.max_clients:
            return None
        k = self._clients_created
        self._clients_created += 1
        self._gauge("telemetry.clients.pooled", self._clients_created)
        station = Station(self.sim, f"client-{k}", self.scenario.medium,
                          position)
        station.connect("CORP", wep_key=self.scenario.wep,
                        ip=f"10.0.0.{_IP_FIRST + k}", gateway=GATEWAY_IP)
        return station

    def _checkin(self, station: Station) -> None:
        self._idle.append(station)

    # ------------------------------------------------------------------
    # one session
    # ------------------------------------------------------------------
    def _await_association(self, session: _Session) -> None:
        fired = {"done": False}

        def on_associated(_bssid, _channel) -> None:
            if fired["done"]:
                return
            fired["done"] = True
            session.station.wlan.on_associated = None
            self._run_activity(session)

        def on_timeout() -> None:
            if fired["done"]:
                return
            fired["done"] = True
            session.station.wlan.on_associated = None
            # Retired, not pooled: a station that cannot associate would
            # poison every future session handed to it.
            self._finish(session, ok=False, pool=False)

        session.station.wlan.on_associated = on_associated
        self.sim.schedule(self.assoc_timeout_s, on_timeout)

    def _run_activity(self, session: _Session) -> None:
        if session.kind == "download":
            browser = Browser(session.station)
            browser.download_and_run(
                f"http://{TARGET_IP}/download.html",
                on_done=lambda outcome: self._finish(
                    session, ok=not outcome.failed,
                    compromised=outcome.compromised))
        else:
            client = HttpClient(session.station)
            client.get(
                f"http://{TARGET_IP}/download.html",
                lambda response: self._finish(
                    session, ok=response is not None
                    and response.status == 200))

    def _finish(self, session: _Session, *, ok: bool,
                compromised: bool = False, pool: bool = True) -> None:
        self.active -= 1
        self._gauge("telemetry.sessions.active", self.active)
        latency = self.sim.now - session.t_arrival
        if ok:
            self.completed += 1
            self.latency_sum_s += latency
            self._incr("telemetry.sessions.completed")
            self._incr(f"telemetry.sessions.kind.{session.kind}")
            metrics = instruments().metrics
            if metrics is not None:
                metrics.observe(LATENCY_METRIC, latency, lo=0.0,
                                hi=LATENCY_HI_S, bins=LATENCY_BINS)
                metrics.add_time("telemetry.session.duration", latency)
        else:
            self.failed += 1
            self._incr("telemetry.sessions.failed")
        if compromised:
            self.compromised += 1
            self._incr("telemetry.sessions.compromised")
        if pool:
            self._checkin(session.station)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Deterministic funnel summary (the shard's trial value)."""
        return {
            "arrived": self.arrived,
            "started": self.started,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "compromised": self.compromised,
            "active": self.active,
            "clients": self._clients_created,
            "mean_latency_s": (self.latency_sum_s / self.completed
                               if self.completed else None),
        }

    # ------------------------------------------------------------------
    # ambient-registry helpers (no-ops when collection is off)
    # ------------------------------------------------------------------
    @staticmethod
    def _incr(name: str, by: int = 1) -> None:
        metrics = instruments().metrics
        if metrics is not None:
            metrics.incr(name, by)

    @staticmethod
    def _gauge(name: str, value: float) -> None:
        metrics = instruments().metrics
        if metrics is not None:
            metrics.set_gauge(name, value)
