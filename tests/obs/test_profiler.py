"""Profiler: span accounting, merge law, breakdown report."""

import math
from time import sleep

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.profiler import Profiler


def _split(xs, cuts):
    bounds = sorted(min(c, len(xs)) for c in cuts)
    parts, start = [], 0
    for b in bounds + [len(xs)]:
        parts.append(xs[start:b])
        start = b
    return parts


def test_span_records_category():
    p = Profiler()
    with p.span("kernel.test"):
        pass
    assert p.count("kernel.test") == 1
    assert p.total_s("kernel.test") >= 0.0
    assert p.categories() == ["kernel.test"]


def test_span_records_even_when_body_raises():
    p = Profiler()
    try:
        with p.span("boom"):
            raise RuntimeError("body failed")
    except RuntimeError:
        pass
    assert p.count("boom") == 1


def test_record_accumulates_count_total_min_max():
    p = Profiler()
    for s in [0.2, 0.1, 0.4]:
        p.record("cat", s)
    assert p.count("cat") == 3
    assert math.isclose(p.total_s("cat"), 0.7)
    assert math.isclose(p.mean_s("cat"), 0.7 / 3)
    assert p.registry.get("cat").min_s == 0.1
    assert p.registry.get("cat").max_s == 0.4


def test_unknown_category_queries():
    p = Profiler()
    assert p.count("nope") == 0
    assert p.total_s("nope") == 0.0
    assert math.isnan(p.mean_s("nope"))
    assert len(p) == 0


@given(st.lists(st.tuples(st.sampled_from("abc"),
                          st.floats(min_value=1e-6, max_value=10.0)),
                max_size=200),
       st.lists(st.integers(min_value=0, max_value=200), max_size=4))
def test_merge_equals_single_pass(spans, cuts):
    whole = Profiler()
    for cat, s in spans:
        whole.record(cat, s)
    merged = Profiler()
    for part in _split(spans, cuts):
        partial = Profiler()
        for cat, s in part:
            partial.record(cat, s)
        merged.merge(partial)
    assert merged.categories() == whole.categories()
    for cat in whole.categories():
        assert merged.count(cat) == whole.count(cat)
        assert math.isclose(merged.total_s(cat), whole.total_s(cat),
                            rel_tol=1e-9, abs_tol=1e-12)
        assert merged.registry.get(cat).min_s == whole.registry.get(cat).min_s
        assert merged.registry.get(cat).max_s == whole.registry.get(cat).max_s


def test_merge_copies_new_categories():
    src = Profiler()
    src.record("only.src", 1.0)
    dst = Profiler()
    dst.merge(src)
    src.record("only.src", 1.0)  # must not reach into dst
    assert dst.count("only.src") == 1
    assert dst.merge(Profiler()) is dst


def test_to_dict_from_dict_roundtrip():
    p = Profiler()
    p.record("a", 0.5)
    p.record("a", 1.5)
    p.record("b", 0.25)
    clone = Profiler.from_dict(p.to_dict())
    assert clone.to_dict() == p.to_dict()
    # The same timer schema as a metrics snapshot.
    assert p.to_dict() == p.registry.snapshot()
    assert p.to_dict()["a"] == {"kind": "timer", "count": 2, "total_s": 2.0,
                                "min_s": 0.5, "max_s": 1.5}


def test_nested_span_self_time_excludes_the_inner_span():
    p = Profiler()
    with p.span("outer"):
        sleep(0.002)
        with p.span("inner"):
            sleep(0.002)
    assert p.count("outer") == p.count("inner") == 1
    assert p.self_s("inner") == p.total_s("inner")
    assert p.self_s("outer") == p.total_s("outer") - p.total_s("inner")
    assert p.self_s("outer") > 0.0
    assert math.isclose(p.grand_total_s(), p.total_s("outer"))
    shares = [float(r["share"].rstrip("%")) for r in p.breakdown()]
    assert math.isclose(sum(shares), 100.0, abs_tol=0.11)


def test_record_inside_a_span_counts_as_its_child():
    p = Profiler()
    with p.span("outer"):
        p.record("leaf", 0.0)
    assert p.self_s("outer") == p.total_s("outer")
    p = Profiler()
    with p.span("outer"):
        sleep(0.001)
        p.record("leaf", 0.0005)
    assert p.self_s("outer") == p.total_s("outer") - 0.0005


def test_iter_orders_by_total_descending():
    p = Profiler()
    p.record("small", 0.1)
    p.record("big", 5.0)
    p.record("mid", 1.0)
    assert [cat for cat, _, _ in p] == ["big", "mid", "small"]


def test_breakdown_shares_sum_to_100():
    p = Profiler()
    p.record("a", 3.0)
    p.record("b", 1.0)
    rows = p.breakdown()
    assert rows[0]["category"] == "a"
    assert rows[0]["share"] == "75.0%"
    assert rows[1]["share"] == "25.0%"
    total = sum(float(r["share"].rstrip("%")) for r in rows)
    assert math.isclose(total, 100.0)


def test_report_empty_and_populated():
    assert Profiler().report() == "(no spans recorded)"
    p = Profiler()
    p.record("kernel.radio.medium", 0.5)
    out = p.report()
    assert "kernel.radio.medium" in out
    assert "calls" in out and "total_ms" in out and "share" in out
