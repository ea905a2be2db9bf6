"""The streamed view of a sweep's merged metrics registry.

``python -m repro sweep EXP --jsonl S`` appends a campaign's records to
a JSON-lines file as its trials finish, flushed once per line so
``tail -f S`` follows it live.  :mod:`~repro.telemetry.stream` holds the
writer and its inverse: :func:`replay` folds the snapshots in seed
order and reproduces the in-process merged registry bit for bit.

DESIGN.md §14 describes the sweep stream.
"""

from repro.telemetry.stream import JsonlWriter, read_records, replay

__all__ = ["JsonlWriter", "read_records", "replay"]
