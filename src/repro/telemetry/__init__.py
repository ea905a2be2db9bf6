"""Live and streamed views of a sweep's merged metrics registry.

The paper reports end-of-run numbers; an operator defending a real WLAN
watches *live* ones.  ``python -m repro sweep EXP --port P --jsonl S``
exposes a campaign's seed-order merged registry while it runs — the
experiment's own metrics and WIDS counters — through:

* :mod:`~repro.telemetry.daemon` — a :class:`LiveStore` of finished
  trials' snapshots and :func:`serving`, a stdlib HTTP server for
  ``GET /metrics`` and ``GET /healthz``;
* :mod:`~repro.telemetry.prometheus` — stdlib text-exposition
  rendering (and a strict parser used by tests/CI);
* :mod:`~repro.telemetry.stream` — an append-only JSON-lines sink whose
  replay reproduces the in-process merged registry exactly.

DESIGN.md §14 describes the served sweep.
"""

from repro.telemetry.daemon import LiveStore, serving
from repro.telemetry.prometheus import parse_exposition, render_exposition
from repro.telemetry.stream import JsonlWriter, read_records, replay

__all__ = [
    "JsonlWriter",
    "LiveStore",
    "parse_exposition",
    "read_records",
    "render_exposition",
    "replay",
    "serving",
]
