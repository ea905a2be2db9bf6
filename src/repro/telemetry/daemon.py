"""The campaign daemon: open-loop shards + live export on ``/metrics``.

:class:`CampaignDaemon` is what ``python -m repro serve`` runs.  It ties
every telemetry piece together:

* a :func:`repro.fleet.run_campaign` of
  :class:`~repro.telemetry.shard.OpenLoopShard` trials (one seed per
  shard, serial or process-parallel) with ``collect_metrics=True`` and
  an ``on_snapshot`` listener;
* a :class:`LiveStore` holding the latest cumulative snapshot per shard,
  merged on demand in seed order (the fleet merge law, applied live);
* a stdlib ``ThreadingHTTPServer`` exposing the merged view as
  Prometheus text on ``GET /metrics`` — with
  ``telemetry.scorecard.*`` gauges derived at scrape time — plus a
  ``GET /healthz`` liveness probe;
* an optional :class:`~repro.telemetry.stream.JsonlWriter` appending
  every snapshot (and the final merged view) to a JSON-lines file.

Threading model: the campaign runs on the calling thread (it is the
daemon's lifetime); the HTTP server serves from daemon threads that
only ever *read* the store under its lock.  Snapshot delivery —
``on_snapshot`` → store update + JSON-lines append — happens on the
campaign thread, so the simulation never waits on a scraper.

Shutdown: SIGINT/SIGTERM raise the shard stop flag
(:func:`repro.telemetry.shard.request_stop`), in-process shards drain
their in-flight sessions and return early, and the daemon finishes the
normal end-of-campaign path (final snapshot, scorecard, report).  A
second signal interrupts Python normally.
"""

from __future__ import annotations

import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.fleet import CampaignResult, run_campaign
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.prometheus import render_exposition
from repro.telemetry.scorecard import LatencyScorecard
from repro.telemetry.shard import OpenLoopShard, clear_stop, request_stop
from repro.telemetry.stream import JsonlWriter

__all__ = ["CampaignDaemon", "LiveStore", "MetricsExporter"]


class LiveStore:
    """Thread-safe latest-snapshot-per-shard store with seed-order merge.

    Snapshots are cumulative, so "latest per shard, merged in seed
    order" is always a *consistent* campaign view — at worst a slice
    stale, never torn.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latest: Dict[int, Tuple[int, dict]] = {}  # index -> (seed, snap)

    def update(self, index: int, seed: int, snapshot: dict) -> None:
        with self._lock:
            self._latest[index] = (seed, snapshot)

    def merged(self) -> MetricsRegistry:
        with self._lock:
            items = sorted(self._latest.values())  # by seed
        merged = MetricsRegistry()
        for _seed, snapshot in items:
            merged.merge(MetricsRegistry.from_snapshot(snapshot))
        return merged

    def __len__(self) -> int:
        with self._lock:
            return len(self._latest)


class _ExportHandler(BaseHTTPRequestHandler):
    """``/metrics`` + ``/healthz``; everything else is 404."""

    # set per-server via functools-free subclassing in _start_server
    store: LiveStore

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        if self.path == "/healthz":
            self._respond(200, "ok\n", "text/plain; charset=utf-8")
            return
        if self.path != "/metrics":
            self._respond(404, "not found\n", "text/plain; charset=utf-8")
            return
        merged = self.store.merged()
        LatencyScorecard.from_registry(merged).install(merged)
        body = render_exposition(merged)
        self._respond(200, body, "text/plain; version=0.0.4; charset=utf-8")

    def _respond(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, fmt: str, *args: object) -> None:
        pass  # scrapes are not console events


class MetricsExporter:
    """A :class:`LiveStore` served live on ``/metrics`` + ``/healthz``.

    The HTTP half of the daemon, which exposes its merged registry to a
    Prometheus scraper: create (optionally around an existing store),
    :meth:`start`, feed ``store.update(...)``, :meth:`stop`.  Port ``0``
    binds an ephemeral port, read back from :attr:`port` after
    :meth:`start`.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 store: Optional[LiveStore] = None) -> None:
        self.host = host
        self.port = port  # rebound to the real port once the server binds
        self.store = store if store is not None else LiveStore()
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "MetricsExporter":
        store = self.store

        class Handler(_ExportHandler):
            pass

        Handler.store = store
        self._server = ThreadingHTTPServer((self.host, self.port), Handler)
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-telemetry-http", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


class CampaignDaemon:
    """Run an open-loop campaign while exporting live telemetry.

    Parameters
    ----------
    shards:
        Number of trials (= seeds = worlds) in the campaign.
    shard:
        The configured :class:`OpenLoopShard` every trial runs.
    seed_base, workers, timeout:
        Passed through to :func:`run_campaign`.
    host, port:
        Bind address for the exporter; port ``0`` picks an ephemeral
        port (read it back from :attr:`port` or ``--port-file``).
    jsonl_path:
        When set, append meta/snapshot/final records there.
    linger_s:
        Keep serving ``/metrics`` for this long after the campaign
        finishes (CI scrapes after completion; operators ctrl-C out).
    """

    def __init__(self, *, shards: int, shard: OpenLoopShard,
                 seed_base: int = 1000, workers: int = 1,
                 timeout: Optional[float] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 jsonl_path: Optional[str] = None,
                 linger_s: float = 0.0) -> None:
        self.shards = shards
        self.shard = shard
        self.seed_base = seed_base
        self.workers = workers
        self.timeout = timeout
        self.host = host
        self.port = port  # rebound to the real port once the server binds
        self.jsonl_path = jsonl_path
        self.linger_s = linger_s
        self.store = LiveStore()
        self.snapshots_seen = 0
        self._exporter: Optional[MetricsExporter] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def run(self, *, install_signal_handlers: bool = True,
            on_ready=None) -> Tuple[CampaignResult, LatencyScorecard]:
        """Serve, run the campaign to completion, return its scorecard.

        ``on_ready(daemon)`` fires once the exporter socket is bound —
        the CLI uses it to print/record the chosen port before load
        starts.
        """
        clear_stop()
        previous_handlers = (
            self._install_signals() if install_signal_handlers else None)
        self._start_server()
        writer = JsonlWriter(self.jsonl_path) if self.jsonl_path else None
        try:
            if writer is not None:
                writer.write_meta(
                    shards=self.shards, seed_base=self.seed_base,
                    workers=self.workers,
                    rate_per_s=self.shard.rate_per_s,
                    duration_s=self.shard.duration_s,
                    snapshot_every_s=self.shard.snapshot_every_s)
            if on_ready is not None:
                on_ready(self)

            def deliver(index: int, snapshot: dict) -> None:
                seed = self.seed_base + index
                self.snapshots_seen += 1
                self.store.update(index, seed, snapshot)
                if writer is not None:
                    writer.write_snapshot(index, seed, snapshot)

            result = run_campaign(
                self.shards, self.shard, seed_base=self.seed_base,
                workers=self.workers, timeout=self.timeout,
                collect_metrics=True, on_snapshot=deliver)
            merged = result.merged_metrics or MetricsRegistry()
            scorecard = LatencyScorecard.from_registry(merged)
            if writer is not None:
                writer.write_final(merged.snapshot(),
                                   scorecard=scorecard.to_json_dict())
            self._linger()
            return result, scorecard
        finally:
            if writer is not None:
                writer.close()
            self._stop_server()
            if previous_handlers is not None:
                self._restore_signals(previous_handlers)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _install_signals(self) -> dict:
        previous = {}

        def on_signal(signum: int, _frame: object) -> None:
            request_stop()

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, on_signal)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass
        return previous

    @staticmethod
    def _restore_signals(previous: dict) -> None:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass

    def _start_server(self) -> None:
        self._exporter = MetricsExporter(
            host=self.host, port=self.port, store=self.store).start()
        self.port = self._exporter.port

    def _stop_server(self) -> None:
        if self._exporter is not None:
            self._exporter.stop()
            self._exporter = None

    def _linger(self) -> None:
        """Keep the exporter up post-campaign until timeout or stop."""
        from repro.telemetry.shard import stop_requested
        deadline = time.monotonic() + self.linger_s
        while time.monotonic() < deadline and not stop_requested():
            time.sleep(0.05)
