"""Append-only JSON-lines telemetry stream, and its replay inverse.

``python -m repro sweep EXP --jsonl S`` writes a plain JSON-lines file:
one self-describing JSON object per line, appended as trials finish, so
any log shipper — or ``tail -f`` — can follow a campaign live with zero
dependencies.

Record kinds, per campaign::

    {"kind": "meta", "version": 1, ...}                  # once, first
    {"kind": "snapshot", "index": i, "seed": s, "seq": n,
     "metrics": {<MetricsRegistry.snapshot()>}}          # one per trial
    {"kind": "final", "metrics": {...}}                  # once, last

Each snapshot is a finished trial's whole registry, and ``seq`` counts
the records of one writer from 0.  The file is opened for append, so it
may hold several campaigns, each starting at its ``meta`` record.
:func:`replay` folds the last campaign's snapshots in seed order through
the registry merge law, which reproduces the in-process
:meth:`CampaignResult.merged_metrics` view bit for bit; the tests pin
that equivalence.
"""

from __future__ import annotations

import io
import json
import threading
from typing import Dict, Iterator, Union

from repro.obs.metrics import MetricsRegistry

__all__ = ["JsonlWriter", "read_records", "replay"]


class JsonlWriter:
    """Append telemetry records to a line-buffered JSON-lines sink.

    Accepts a path (opened for append) or any text file object.  Writes
    are serialized under a lock and flushed per line so a concurrently
    tailing reader never sees a torn record.
    """

    def __init__(self, sink: Union[str, io.TextIOBase]) -> None:
        if isinstance(sink, str):
            self._file = open(sink, "a", encoding="utf-8")
            self._owns = True
        else:
            self._file = sink
            self._owns = False
        self._lock = threading.Lock()
        self._seq = 0

    def write_meta(self, **fields: object) -> None:
        self._write({"kind": "meta", "version": 1, **fields})

    def write_snapshot(self, index: int, seed: int, metrics: dict) -> None:
        record = {"kind": "snapshot", "index": index, "seed": seed,
                  "seq": self._seq, "metrics": metrics}
        self._write(record)

    def write_final(self, metrics: dict) -> None:
        self._write({"kind": "final", "metrics": metrics})

    def _write(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        with self._lock:
            self._seq += 1
            self._file.write(line)
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._owns:
                self._file.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_records(path: str) -> Iterator[dict]:
    """Yield every record in a stream file, validating line grammar."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            if not isinstance(record, dict) or "kind" not in record:
                raise ValueError(f"{path}:{lineno}: record without a kind")
            yield record


def replay(path: str) -> MetricsRegistry:
    """Rebuild the last campaign's merged registry from a stream file.

    Only the records after the last ``meta`` record count: an earlier
    campaign appended to the same file is ignored.  Keeps the last
    snapshot per trial index, then folds them in seed order — the same
    law :meth:`CampaignResult.merged_metrics` applies to in-process
    snapshots, so for a complete stream the result is identical.
    """
    latest: Dict[int, dict] = {}
    seeds: Dict[int, int] = {}
    for record in read_records(path):
        if record["kind"] == "meta":
            latest.clear()
            seeds.clear()
        if record["kind"] != "snapshot":
            continue
        index = int(record["index"])
        latest[index] = record["metrics"]
        seeds[index] = int(record["seed"])
    merged = MetricsRegistry()
    for index in sorted(latest, key=lambda i: seeds[i]):
        merged.merge(MetricsRegistry.from_snapshot(latest[index]))
    return merged
