"""A sweep's merged registry, served live on ``GET /metrics``.

``python -m repro sweep EXP --port P`` feeds the metrics snapshot of
every trial that finishes (the fleet's ``on_snapshot``) into a
:class:`LiveStore` and serves it with :func:`serving`:

* ``GET /metrics`` renders the seed-order merge of the trials finished
  so far as Prometheus text (:mod:`repro.telemetry.prometheus`);
* ``GET /healthz`` answers ``ok``; any other path is a 404.

Threading model: the campaign runs on the calling thread and is the
store's only writer; the HTTP server answers from daemon threads that
only read the store under its lock, so the sweep never waits on a
scraper.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.telemetry.prometheus import render_exposition

__all__ = ["LiveStore", "serving"]


class LiveStore:
    """Thread-safe store of finished trials' snapshots, merged in seed order.

    Each snapshot is a finished trial's whole registry, so the merge of
    whatever the store holds is always the merged registry of a set of
    complete trials: it grows as the sweep runs and is never torn.
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


@contextmanager
def serving(store: LiveStore, host: str = "127.0.0.1",
            port: int = 0) -> Iterator[ThreadingHTTPServer]:
    """Serve ``store`` on ``host:port`` for the duration of the block.

    Port ``0`` binds an ephemeral port; read the bound one back from
    ``server.server_address[1]``.
    """

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 (http.server naming)
            status, content_type = 200, "text/plain; charset=utf-8"
            if self.path == "/healthz":
                body = "ok\n"
            elif self.path == "/metrics":
                body = render_exposition(store.merged())
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            else:
                status, body = 404, "not found\n"
            payload = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, fmt: str, *args: object) -> None:
            pass  # scrapes are not console events

    server = ThreadingHTTPServer((host, port), Handler)
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.1},
        name="repro-metrics-http", daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
