"""`EncodeCache` invalidation under derivatives and mixed variant keys.

The cache's invalidation contract is *structural*: it lives in an
``init=False`` dataclass field, so every copy-on-write derivative
(``with_body``, WEP encap/decap) starts cold automatically — there is
no manual invalidation call to forget.  These tests walk the full
cold → cached → invalidated → re-cached lifecycle, chain derivatives,
mix ``with_fcs`` variant keys, and at every step assert the
``codec.encode_cache.*`` counters match the observed path exactly.
"""

from __future__ import annotations

import pytest

from repro.dot11.frames import Dot11Frame, make_data
from repro.dot11.mac import MacAddress
from repro.obs.runtime import collecting
from repro.wire import EncodeCache

AP = MacAddress("aa:bb:cc:dd:00:01")
STA = MacAddress("00:02:2d:00:00:07")


def _counters(col):
    snap = col.registry.snapshot()

    def value(name):
        entry = snap.get(name)
        return entry["value"] if entry else 0

    return {
        "hits": value("codec.encode_cache.hits"),
        "misses": value("codec.encode_cache.misses"),
        "lookup_misses": value("codec.encode_cache.lookup_misses"),
    }


def _frame(payload: bytes = bytes(range(100))) -> Dot11Frame:
    return make_data(STA, AP, AP, payload, to_ds=True, seq=7)


# ----------------------------------------------------------------------
# the EncodeCache object itself
# ----------------------------------------------------------------------

def test_cache_get_put_counters():
    with collecting() as col:
        cache = EncodeCache()
        assert cache.get("k") is None           # cold lookup
        assert cache.put("k", b"raw") == b"raw"
        assert cache.get("k") == b"raw"         # hit
        assert len(cache) == 1
    assert _counters(col) == {"hits": 1, "misses": 1, "lookup_misses": 1}


def test_cache_clear_starts_cold_again():
    with collecting() as col:
        cache = EncodeCache()
        cache.put("k", b"raw")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("k") is None
    assert _counters(col)["hits"] == 0
    assert _counters(col)["lookup_misses"] == 1


def test_cache_records_nothing_without_context():
    cache = EncodeCache()
    cache.put("k", b"raw")
    assert cache.get("k") == b"raw"             # no registry: still works


# ----------------------------------------------------------------------
# cold -> cached -> invalidated -> re-cached through Dot11Frame
# ----------------------------------------------------------------------

def test_cold_cached_invalidated_recached_lifecycle():
    with collecting() as col:
        frame = _frame()
        raw1 = frame.to_bytes()                 # cold: lookup_miss + miss
        assert _counters(col) == {"hits": 0, "misses": 1,
                                  "lookup_misses": 1}
        assert frame.to_bytes() == raw1         # cached: pure hit
        assert frame.to_bytes() is raw1         # same buffer, zero copies
        assert _counters(col) == {"hits": 2, "misses": 1,
                                  "lookup_misses": 1}

        derived = frame.with_body(b"ciphertext " * 9, protected=True)
        raw2 = derived.to_bytes()               # invalidated: cold again
        assert raw2 != raw1
        assert _counters(col) == {"hits": 2, "misses": 2,
                                  "lookup_misses": 2}
        assert derived.to_bytes() is raw2       # re-cached
        assert _counters(col) == {"hits": 3, "misses": 2,
                                  "lookup_misses": 2}
        # The parent's cache was never touched by the derivative.
        assert frame.to_bytes() is raw1
        assert _counters(col)["hits"] == 4


def test_chained_with_body_derivatives_each_start_cold():
    """encap -> decap chains: every link re-encodes exactly once."""
    with collecting() as col:
        frame = _frame()
        encap = frame.with_body(b"E" * 64, protected=True)
        decap = encap.with_body(bytes(range(100)), protected=False)
        chain = [frame, encap, decap]
        raws = [f.to_bytes() for f in chain]    # 3 cold encodes
        again = [f.to_bytes() for f in chain]   # 3 hits
        assert [a is b for a, b in zip(raws, again)] == [True] * 3
        assert _counters(col) == {"hits": 3, "misses": 3,
                                  "lookup_misses": 3}
    # The decap round-trip restored the original wire bytes even
    # though its cache entry is distinct from the root frame's.
    assert raws[2] == raws[0]
    assert raws[1] != raws[0]


def test_mixed_with_fcs_keys_are_distinct_entries():
    """True/False FCS variants: two cold encodes, then all hits."""
    with collecting() as col:
        frame = _frame()
        with_fcs = frame.to_bytes(with_fcs=True)
        without = frame.to_bytes(with_fcs=False)
        assert with_fcs[:-4] == without         # FCS is the only delta
        assert len(with_fcs) == len(without) + 4
        assert _counters(col) == {"hits": 0, "misses": 2,
                                  "lookup_misses": 2}
        for _ in range(3):
            assert frame.to_bytes(with_fcs=True) is with_fcs
            assert frame.to_bytes(with_fcs=False) is without
        assert _counters(col) == {"hits": 6, "misses": 2,
                                  "lookup_misses": 2}


def test_derivative_with_mixed_keys_cold_per_variant():
    """Chained with_body + both FCS variants: 2 cold entries per link."""
    with collecting() as col:
        frame = _frame()
        frame.to_bytes(with_fcs=True)
        frame.to_bytes(with_fcs=False)
        derived = frame.with_body(b"x" * 32)
        derived.to_bytes(with_fcs=True)
        derived.to_bytes(with_fcs=False)
        assert _counters(col) == {"hits": 0, "misses": 4,
                                  "lookup_misses": 4}
        # Re-reading every (object, variant) pair is all hits.
        frame.to_bytes(with_fcs=True)
        frame.to_bytes(with_fcs=False)
        derived.to_bytes(with_fcs=True)
        derived.to_bytes(with_fcs=False)
        assert _counters(col) == {"hits": 4, "misses": 4,
                                  "lookup_misses": 4}


def test_real_encodes_counted_once_per_cold_path():
    """dot11.frames_encoded counts real encodes, not cache hits."""
    with collecting() as col:
        frame = _frame()
        for _ in range(5):
            frame.to_bytes()
        derived = frame.with_body(b"y" * 16)
        for _ in range(5):
            derived.to_bytes()
    snap = col.registry.snapshot()
    assert snap["dot11.frames_encoded"]["value"] == 2
    assert snap["codec.encode_cache.misses"]["value"] == 2
    assert snap["codec.encode_cache.hits"]["value"] == 8


def test_codec_frame_spans_count_cached_encodes():
    """The profiler keeps one ``codec.frame.encode`` span per call, cache
    hits included, so the cache's payoff shows in the profile."""
    with collecting(profile=True) as col:
        frame = _frame()
        raw = frame.to_bytes()
        for _ in range(99):
            frame.to_bytes()
        for _ in range(50):
            Dot11Frame.from_bytes(raw)
    assert col.profiler.count("codec.frame.encode") == 100
    assert col.profiler.count("codec.frame.decode") == 50


def test_cached_bytes_roundtrip_after_invalidation():
    """Sanity: decoding a re-cached derivative sees the new body."""
    frame = _frame()
    derived = frame.with_body(b"new payload bytes", protected=False)
    decoded = Dot11Frame.from_bytes(derived.to_bytes())
    assert decoded.body == b"new payload bytes"
    assert Dot11Frame.from_bytes(frame.to_bytes()).body == frame.body
