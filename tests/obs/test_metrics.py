"""Mergeable metric types: the split-anywhere == single-pass law.

Every metric type must satisfy the merge contract the fleet engine
relies on — folding per-shard partials together in shard order is
indistinguishable from a single pass over the whole observation stream.  Splits include empty partials
(a shard that observed nothing) and single-sample partials.
"""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (CounterMetric, GaugeMetric, HistogramMetric,
                               MetricsRegistry, TimerMetric)


def _split(xs, cuts):
    """Split ``xs`` into parts at the (sorted, clamped) cut points."""
    bounds = sorted(min(c, len(xs)) for c in cuts)
    parts, start = [], 0
    for b in bounds + [len(xs)]:
        parts.append(xs[start:b])
        start = b
    return parts


# cut lists that force empty partials (adjacent equal cuts) and
# single-sample partials (adjacent cuts one apart) to appear often
_CUTS = st.lists(st.integers(min_value=0, max_value=200), max_size=5)


# ----------------------------------------------------------------------
# CounterMetric
# ----------------------------------------------------------------------

@given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=200),
       _CUTS)
def test_counter_merge_equals_single_pass(xs, cuts):
    whole = CounterMetric()
    for x in xs:
        whole.incr(x)
    merged = CounterMetric()
    for part in _split(xs, cuts):
        partial = CounterMetric()
        for x in part:
            partial.incr(x)
        merged.merge(partial)
    assert merged.value == whole.value


def test_counter_roundtrip_and_chaining():
    c = CounterMetric()
    c.incr()
    c.incr(4)
    assert c.value == 5
    clone = CounterMetric.from_dict(c.to_dict())
    assert clone.value == 5
    assert c.merge(CounterMetric()) is c
    assert c.value == 5  # merging an empty counter is a no-op


# ----------------------------------------------------------------------
# GaugeMetric
# ----------------------------------------------------------------------

@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=200),
       _CUTS)
def test_gauge_merge_equals_single_pass(xs, cuts):
    whole = GaugeMetric()
    for x in xs:
        whole.set(x)
    merged = GaugeMetric()
    for part in _split(xs, cuts):
        partial = GaugeMetric()
        for x in part:
            partial.set(x)
        merged.merge(partial)
    assert merged.updates == whole.updates
    assert merged.value == whole.value  # last set wins, across shards
    if xs:
        assert merged.min == whole.min and merged.max == whole.max


def test_gauge_empty_later_shard_does_not_clobber_value():
    g = GaugeMetric()
    g.set(7.0)
    g.merge(GaugeMetric())  # later shard saw nothing
    assert g.value == 7.0
    assert g.updates == 1


def test_gauge_unset_serialization():
    data = GaugeMetric().to_dict()
    assert data["updates"] == 0
    assert data["min"] is None and data["max"] is None
    clone = GaugeMetric.from_dict(data)
    assert clone.value is None and clone.updates == 0


# ----------------------------------------------------------------------
# TimerMetric
# ----------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e3), max_size=200),
       _CUTS)
def test_timer_merge_equals_single_pass(xs, cuts):
    whole = TimerMetric()
    for x in xs:
        whole.add(x)
    merged = TimerMetric()
    for part in _split(xs, cuts):
        partial = TimerMetric()
        for x in part:
            partial.add(x)
        merged.merge(partial)
    assert merged.count == whole.count
    assert math.isclose(merged.total_s, whole.total_s,
                        rel_tol=1e-9, abs_tol=1e-9)
    if xs:
        assert merged.min_s == whole.min_s
        assert merged.max_s == whole.max_s


def test_timer_mean_and_empty():
    t = TimerMetric()
    assert math.isnan(t.mean_s)
    t.add(1.0)
    t.add(3.0)
    assert t.mean_s == 2.0
    clone = TimerMetric.from_dict(t.to_dict())
    assert (clone.count, clone.total_s, clone.min_s, clone.max_s) == (2, 4.0, 1.0, 3.0)


# ----------------------------------------------------------------------
# HistogramMetric
# ----------------------------------------------------------------------

@given(st.lists(st.floats(min_value=-50.0, max_value=150.0), max_size=200),
       _CUTS)
def test_histogram_merge_equals_single_pass(xs, cuts):
    whole = HistogramMetric(0.0, 100.0, 20)
    for x in xs:
        whole.observe(x)
    merged = HistogramMetric(0.0, 100.0, 20)
    for part in _split(xs, cuts):
        partial = HistogramMetric(0.0, 100.0, 20)
        for x in part:
            partial.observe(x)
        merged.merge(partial)
    assert merged.counts == whole.counts  # exact: counts are integers
    assert merged.underflow == whole.underflow
    assert merged.overflow == whole.overflow
    assert merged.total == whole.total


def test_histogram_merge_rejects_mismatched_binning():
    with pytest.raises(ValueError):
        HistogramMetric(0.0, 10.0, 10).merge(HistogramMetric(0.0, 10.0, 5))
    with pytest.raises(ValueError):
        HistogramMetric(0.0, 10.0, 10).merge(HistogramMetric(0.0, 20.0, 10))


def test_histogram_invalid_bounds():
    with pytest.raises(ValueError):
        HistogramMetric(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        HistogramMetric(0.0, 1.0, 0)


def test_histogram_matches_sim_stats_binning():
    # [lo, hi) bins with separate under/overflow, pinned as literal counts.
    xs = [0.5, 1.5, 1.7, 9.9, -1.0, 10.0, 25.0, 3.3333, 6.999999]
    mine = HistogramMetric(0.0, 10.0, 10)
    for x in xs:
        mine.observe(x)
    assert mine.counts == [1, 2, 0, 1, 0, 0, 1, 0, 0, 1]
    assert mine.underflow == 1
    assert mine.overflow == 2


def test_merge_returns_self_for_chaining():
    for a, b in [(CounterMetric(), CounterMetric()),
                 (GaugeMetric(), GaugeMetric()),
                 (TimerMetric(), TimerMetric()),
                 (HistogramMetric(0.0, 1.0, 2), HistogramMetric(0.0, 1.0, 2))]:
        assert a.merge(b) is a


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------

def _record_ops(reg, ops):
    for kind, x in ops:
        if kind == "c":
            reg.incr("cat.count", x)
        elif kind == "g":
            reg.set_gauge("cat.gauge", x)
        elif kind == "t":
            reg.add_time("cat.timer", abs(x))
        else:
            reg.observe("cat.hist", x, lo=0.0, hi=100.0, bins=10)


@given(st.lists(st.tuples(st.sampled_from("cgth"),
                          st.integers(min_value=-50, max_value=150)),
                max_size=200),
       _CUTS)
def test_registry_merge_equals_single_pass(ops, cuts):
    whole = MetricsRegistry()
    _record_ops(whole, ops)
    merged = MetricsRegistry()
    for part in _split(ops, cuts):
        partial = MetricsRegistry()
        _record_ops(partial, part)
        merged.merge(MetricsRegistry.from_snapshot(partial.snapshot()))
    assert merged.snapshot() == whole.snapshot()


def test_registry_snapshot_roundtrip_is_json_safe():
    reg = MetricsRegistry()
    reg.incr("a.count", 3)
    reg.set_gauge("a.gauge", 1.5)
    reg.add_time("a.timer", 0.25)
    reg.observe("a.hist", 5.0, lo=0.0, hi=10.0, bins=5)
    snap = json.loads(json.dumps(reg.snapshot()))  # survives JSON transport
    clone = MetricsRegistry.from_snapshot(snap)
    assert clone.snapshot() == reg.snapshot()


def test_registry_type_collision_raises():
    reg = MetricsRegistry()
    reg.incr("x")
    with pytest.raises(ValueError):
        reg.set_gauge("x", 1.0)
    other = MetricsRegistry()
    other.set_gauge("x", 1.0)
    with pytest.raises(ValueError):
        reg.merge(other)


def test_registry_merge_deep_copies_absent_metrics():
    src = MetricsRegistry()
    src.incr("only.here", 2)
    dst = MetricsRegistry()
    dst.merge(src)
    src.incr("only.here", 10)  # must not reach into dst
    assert dst.value("only.here") == 2


def test_registry_subtree_and_queries():
    reg = MetricsRegistry()
    reg.incr("radio.deliveries", 5)
    reg.incr("radio.drops.loss", 1)
    reg.incr("tcp.retransmits", 2)
    assert set(reg.subtree("radio")) == {"radio.deliveries", "radio.drops.loss"}
    assert reg.names() == ["radio.deliveries", "radio.drops.loss",
                           "tcp.retransmits"]
    assert reg.value("radio.deliveries") == 5
    assert reg.value("missing") == 0
    assert len(reg) == 3
    assert [name for name, _ in reg] == reg.names()


def test_registry_report_lists_every_metric():
    reg = MetricsRegistry()
    reg.incr("a.count", 7)
    reg.set_gauge("a.gauge", 2.0)
    reg.add_time("a.timer", 0.5)
    reg.observe("a.hist", 1.0, lo=0.0, hi=10.0, bins=2)
    out = reg.report()
    for name in reg.names():
        assert name in out
    assert "counter" in out and "gauge" in out
    assert "timer" in out and "histogram" in out
