"""Trace: emission, filtering, queries."""

from repro.sim.kernel import Simulator
from repro.sim.trace import Trace, TraceRecord


def test_emit_records_time_from_bound_clock():
    sim = Simulator(seed=0)
    sim.schedule(2.5, sim.trace.emit, "test.cat", "src", value=1)
    sim.run()
    rec = sim.trace.last("test.cat")
    assert rec is not None
    assert rec.time == 2.5
    assert rec.detail == {"value": 1}


def test_select_by_category_prefix():
    t = Trace()
    t.emit("dot11.assoc", "a")
    t.emit("dot11.deauth", "b")
    t.emit("vpn.connected", "c")
    assert t.count("dot11") == 2
    assert t.count("dot11.assoc") == 1
    assert t.count("vpn") == 1
    assert t.count() == 3


def test_select_by_source_and_detail():
    t = Trace()
    t.emit("x", "host1", code=1)
    t.emit("x", "host2", code=2)
    t.emit("x", "host1", code=2)
    assert t.count("x", source="host1") == 2
    assert t.count("x", code=2) == 2
    assert t.count("x", source="host1", code=2) == 1


def test_select_since():
    sim = Simulator(seed=0)
    sim.schedule(1.0, sim.trace.emit, "a", "s")
    sim.schedule(5.0, sim.trace.emit, "a", "s")
    sim.run()
    assert sim.trace.count("a", since=2.0) == 1


def test_record_detail_is_defensively_copied_on_construction():
    # Regression: TraceRecord is frozen but its detail dict was shared
    # with the caller — mutating the caller's dict rewrote recorded
    # history in place.
    payload = {"state": "associated"}
    rec = TraceRecord(time=0.0, category="dot11.assoc", source="victim",
                      detail=payload)
    payload["state"] = "deauthed"
    payload["extra"] = True
    assert rec.detail == {"state": "associated"}


def test_emit_kwargs_cannot_be_mutated_after_the_fact():
    t = Trace()
    detail = {"seq": 1}
    t.emit("c.x", "s", **detail)
    detail["seq"] = 999  # emit built its own dict from **kwargs anyway...
    rec = t.last("c.x")
    assert rec is not None and rec.detail == {"seq": 1}
    # ...but a record constructed straight from a shared dict is the
    # case the defensive copy exists for:
    shared = {"seq": 2}
    direct = TraceRecord(time=1.0, category="c.y", source="s", detail=shared)
    shared.clear()
    assert direct.detail == {"seq": 2}


def test_between_bounds_are_inclusive():
    sim = Simulator(seed=0)
    for t in (1.0, 2.0, 3.0, 4.0):
        sim.schedule(t, sim.trace.emit, "a.x", "s", t=t)
    sim.run()
    got = [r.detail["t"] for r in sim.trace.between(2.0, 3.0)]
    assert got == [2.0, 3.0]
    # composes with select()'s filters
    assert [r.detail["t"] for r in sim.trace.between(0.0, 9.0, t=4.0)] == [4.0]


def test_between_with_category_prefix():
    sim = Simulator(seed=0)
    sim.schedule(1.0, sim.trace.emit, "netsed.rewrite", "gw")
    sim.schedule(1.0, sim.trace.emit, "dot11.assoc", "ap")
    sim.schedule(5.0, sim.trace.emit, "netsed.rewrite", "gw")
    sim.run()
    got = list(sim.trace.between(0.0, 2.0, category="netsed."))
    assert len(got) == 1 and got[0].category == "netsed.rewrite"


def test_matching_is_a_category_prefix_view():
    t = Trace()
    t.emit("netsed.rewrite", "gw", replacements=2)
    t.emit("netsed.accept", "gw")
    t.emit("netfilter.dnat", "gw")
    cats = [r.category for r in t.matching("netsed.")]
    assert cats == ["netsed.rewrite", "netsed.accept"]
    assert list(t.matching("nosuch.")) == []


def test_trace_summary():
    sim = Simulator(seed=0)
    sim.schedule(1.0, sim.trace.emit, "a.x", "s")
    sim.schedule(2.0, sim.trace.emit, "a.x", "s")
    sim.schedule(3.0, sim.trace.emit, "b.y", "s")
    sim.run()
    assert sim.trace.summary() == {
        "n": 3, "by_category": {"a.x": 2, "b.y": 1},
        "t_first": 1.0, "t_last": 3.0,
    }
    assert Trace().summary() == {"n": 0, "by_category": {},
                                 "t_first": None, "t_last": None}


def test_dump_is_readable():
    t = Trace()
    t.emit("cat.sub", "host", k="v")
    out = t.dump()
    assert "cat.sub" in out and "host" in out and "k='v'" in out

