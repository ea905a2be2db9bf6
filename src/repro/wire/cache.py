"""Encode-once caching for immutable frames with many consumers.

One transmitted :class:`~repro.dot11.frames.Dot11Frame` is serialized
by every consumer that touches it — each unicast receiver, the
monitor-mode sniffer, the flight recorder's raw-byte capture, and the
WIDS detectors all call ``to_bytes()`` on the *same* frozen frame.
The bytes cannot differ (frames are treated as immutable; mutation
goes through ``with_body`` which returns a new object), so the first
encode is cached per variant key (``with_fcs`` True/False) and every
later consumer gets the cached buffer back.

Hit/miss counters land under ``codec.encode_cache.*`` when an
observability context is installed — the ``wire/encode_cache_hit_rate``
bench metric reads the hit rate from them.

Invalidation contract: the cache lives in a field excluded from
``dataclasses.replace`` (``init=False``), so every copy-on-write
derivative (``with_body``, ``decremented`` …) starts cold.  Code that
mutates a serialized field of a frame in place — there is none in the
repo — must call :meth:`EncodeCache.clear` (or drop the cache object)
before the next encode.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.obs.runtime import instruments

__all__ = ["EncodeCache"]


class EncodeCache:
    """A tiny per-object ``variant key -> encoded bytes`` cache."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: dict[Hashable, bytes] = {}

    def get(self, key: Hashable) -> Optional[bytes]:
        raw = self._entries.get(key)
        m = instruments().metrics
        if m is not None:
            m.incr("codec.encode_cache.hits" if raw is not None
                   else "codec.encode_cache.lookup_misses")
        return raw

    def put(self, key: Hashable, raw: bytes) -> bytes:
        m = instruments().metrics
        if m is not None:
            m.incr("codec.encode_cache.misses")
        self._entries[key] = raw
        return raw

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
