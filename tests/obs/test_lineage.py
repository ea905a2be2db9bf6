"""FlightRecorder: lineages, span links, ring bounds, serialization."""

import pytest

from repro.obs.lineage import FlightRecorder, Hop, Lineage, recording
from repro.obs.runtime import instruments


# ----------------------------------------------------------------------
# recording basics
# ----------------------------------------------------------------------

def test_begin_and_hop_build_a_lineage():
    rec = FlightRecorder()
    tid = rec.begin("dot11", "victim:wlan0", 1.0)
    rec.hop("radio", "tx", trace_id=tid, host="victim:wlan0", t=1.0, ch=6)
    rec.hop("radio", "rx", trace_id=tid, host="corp-ap", t=1.5)
    ln = rec.get(tid)
    assert ln is not None
    assert (ln.kind, ln.origin, ln.t0, ln.parent) == ("dot11", "victim:wlan0",
                                                      1.0, None)
    assert [(h.layer, h.action, h.host) for h in ln.hops] == [
        ("radio", "tx", "victim:wlan0"), ("radio", "rx", "corp-ap")]
    assert ln.hops[0].detail == {"ch": 6}


def test_trace_ids_are_sequential_and_rng_free():
    rec = FlightRecorder()
    ids = [rec.begin("dot11", "a", float(i)) for i in range(5)]
    assert ids == [1, 2, 3, 4, 5]


def test_hop_to_unknown_id_is_dropped_silently():
    rec = FlightRecorder()
    rec.hop("radio", "tx", trace_id=999)  # must not raise
    assert len(rec) == 0


def test_hop_with_no_time_uses_last_seen_sim_time():
    rec = FlightRecorder()
    tid = rec.begin("dot11", "a", 3.5)
    rec.hop("dot11", "encode", trace_id=tid)  # codec has no sim reference
    assert rec.get(tid).hops[0].t == 3.5


def test_hop_detail_is_defensively_copied():
    rec = FlightRecorder()
    tid = rec.begin("dot11", "a", 0.0)
    detail = {"seq": 1}
    hop = Hop(t=0.0, host="h", layer="l", action="a", detail=detail)
    detail["seq"] = 999
    assert hop.detail == {"seq": 1}
    rec.hop("l", "a", trace_id=tid, **{"seq": 2})
    assert rec.get(tid).hops[0].detail == {"seq": 2}


# ----------------------------------------------------------------------
# parent/child span links + ambient context
# ----------------------------------------------------------------------

def test_explicit_parent_links_both_directions():
    rec = FlightRecorder()
    parent = rec.begin("dot11", "victim", 1.0)
    child = rec.begin("ether", "rogue-gw", 2.0, parent=parent)
    assert rec.get(child).parent == parent
    assert rec.get(parent).children == [child]


def test_frame_context_makes_new_frames_children():
    rec = FlightRecorder()
    incoming = rec.begin("dot11", "corp-ap", 1.0)
    with rec.frame_context(incoming):
        assert rec.current() == incoming
        derived = rec.begin("dot11", "rogue-gw", 1.1)  # bridge re-emits
    assert rec.current() is None
    assert rec.get(derived).parent == incoming


def test_frame_context_none_is_a_noop():
    rec = FlightRecorder()
    with rec.frame_context(None):
        assert rec.current() is None


def test_hop_defaults_to_current_lineage():
    rec = FlightRecorder()
    tid = rec.begin("dot11", "a", 0.0)
    with rec.frame_context(tid):
        rec.hop("ip", "deliver", host="victim")
    assert rec.get(tid).hops[0].action == "deliver"


def test_ancestors_and_descendants():
    rec = FlightRecorder()
    a = rec.begin("dot11", "victim", 0.0)
    b = rec.begin("ether", "corp-ap", 1.0, parent=a)
    c = rec.begin("dot11", "corp-ap", 2.0, parent=b)
    d = rec.begin("dot11", "rogue-gw", 3.0, parent=c)
    assert [ln.trace_id for ln in rec.ancestors(d)] == [a, b, c, d]
    assert [ln.trace_id for ln in rec.descendants(a)] == [b, c, d]
    assert rec.ancestors(999) == []
    assert rec.descendants(999) == []


def test_suspended_drops_hops():
    rec = FlightRecorder()
    tid = rec.begin("dot11", "a", 0.0)
    with rec.suspended():
        rec.hop("dot11", "encode", trace_id=tid)  # raw-byte capture re-entry
    rec.hop("dot11", "encode", trace_id=tid)
    assert len(rec.get(tid).hops) == 1


# ----------------------------------------------------------------------
# bounds: lineage ring + per-lineage hop cap
# ----------------------------------------------------------------------

def test_ring_evicts_oldest_lineage():
    rec = FlightRecorder(capacity=3)
    ids = [rec.begin("dot11", "a", float(i)) for i in range(5)]
    assert len(rec) == 3
    assert rec.evicted == 2
    assert rec.get(ids[0]) is None and rec.get(ids[1]) is None
    assert [ln.trace_id for ln in rec.lineages()] == ids[2:]
    # hops addressed to an evicted id vanish without error
    rec.hop("radio", "rx", trace_id=ids[0])
    assert len(rec) == 3


def test_ancestors_truncate_at_evicted_links():
    rec = FlightRecorder(capacity=2)
    a = rec.begin("dot11", "x", 0.0)
    b = rec.begin("dot11", "x", 1.0, parent=a)
    c = rec.begin("dot11", "x", 2.0, parent=b)  # evicts a
    assert rec.get(a) is None
    assert [ln.trace_id for ln in rec.ancestors(c)] == [b, c]


def test_max_hops_counts_overflow_instead_of_storing():
    rec = FlightRecorder(max_hops=2)
    tid = rec.begin("dot11", "a", 0.0)
    for i in range(5):
        rec.hop("radio", "tx", trace_id=tid, i=i)
    ln = rec.get(tid)
    assert len(ln.hops) == 2
    assert ln.hops_dropped == 3


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_attach_raw_first_capture_wins():
    rec = FlightRecorder()
    tid = rec.begin("dot11", "a", 0.0)
    rec.attach_raw(tid, b"first")
    rec.attach_raw(tid, b"retransmit")
    assert rec.get(tid).raw == b"first"
    rec.attach_raw(999, b"x")  # unknown id: silent


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------

def test_find_hops_filters_by_layer_and_action_prefix():
    rec = FlightRecorder()
    a = rec.begin("dot11", "x", 0.0)
    b = rec.begin("dot11", "y", 1.0)
    rec.hop("netsed", "rewrite", trace_id=a)
    rec.hop("netsed", "accept", trace_id=b)
    rec.hop("radio", "drop.collision", trace_id=b)
    assert [(ln.trace_id, h.action) for ln, h in rec.find_hops("netsed")] == [
        (a, "rewrite"), (b, "accept")]
    assert [h.action for _, h in rec.find_hops("radio", "drop.")] == [
        "drop.collision"]


def test_summary_counts():
    rec = FlightRecorder(capacity=2)
    rec.hop("x", "y", trace_id=rec.begin("dot11", "a", 0.0))
    rec.begin("ether", "b", 1.0)
    rec.begin("dot11", "c", 2.0)  # evicts the first
    s = rec.summary()
    assert s == {"lineages": 2, "by_kind": {"ether": 1, "dot11": 1},
                 "hops": 0, "evicted": 1}


# ----------------------------------------------------------------------
# serialization (fleet IPC)
# ----------------------------------------------------------------------

def test_to_dicts_from_dicts_roundtrip():
    rec = FlightRecorder()
    a = rec.begin("dot11", "victim:wlan0", 1.0)
    rec.hop("radio", "tx", trace_id=a, host="victim:wlan0", t=1.0, ch=6)
    rec.attach_raw(a, bytes(range(16)))
    b = rec.begin("ether", "rogue-gw", 2.0, parent=a)
    rec.hop("netsed", "rewrite", trace_id=b, replacements=2)

    clone = FlightRecorder.from_dicts(rec.to_dicts())
    assert len(clone) == 2
    ca, cb = clone.get(a), clone.get(b)
    assert ca.raw == bytes(range(16))
    assert ca.children == [b] and cb.parent == a
    assert cb.hops[0].detail == {"replacements": 2}
    assert [ln.trace_id for ln in clone.ancestors(b)] == [a, b]
    # new ids in the clone don't collide with imported ones
    assert clone.begin("dot11", "z", 3.0) == b + 1


def test_to_dicts_limit_keeps_newest_and_raw_limit_truncates():
    rec = FlightRecorder()
    ids = []
    for i in range(4):
        tid = rec.begin("dot11", f"h{i}", float(i))
        rec.attach_raw(tid, bytes(1000))
        ids.append(tid)
    dicts = rec.to_dicts(limit=2, raw_limit=8)
    assert [d["trace_id"] for d in dicts] == ids[-2:]
    assert all(len(bytes.fromhex(d["raw"])) == 8 for d in dicts)


def test_lineage_dict_roundtrip_preserves_hops_dropped():
    ln = Lineage(7, kind="dot11", origin="x", t0=1.5, parent=3)
    ln.hops_dropped = 4
    clone = Lineage.from_dict(ln.to_dict())
    assert clone.hops_dropped == 4 and clone.parent == 3


# ----------------------------------------------------------------------
# the ambient global
# ----------------------------------------------------------------------

def test_recording_installs_and_restores_nested():
    assert instruments().recorder is None
    with recording(capacity=8) as outer:
        assert instruments().recorder is outer
        with recording(capacity=4) as inner:
            assert instruments().recorder is inner
        assert instruments().recorder is outer
    assert instruments().recorder is None


def test_recording_restores_on_exception():
    with pytest.raises(RuntimeError):
        with recording():
            raise RuntimeError("boom")
    assert instruments().recorder is None


def test_simulator_registers_its_trace_with_the_recorder():
    from repro.sim.kernel import Simulator

    with recording() as rec:
        sim = Simulator(seed=0)
        assert rec.sim_traces == [sim.trace]
    assert Simulator(seed=0)  # no recorder installed: no error, no leak
    assert rec.sim_traces == [sim.trace]
