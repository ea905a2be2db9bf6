"""The one ambient instrumentation context: nesting, restoration, gating."""

from contextlib import nullcontext
from itertools import product

import pytest

from repro.obs.lineage import recording
from repro.obs.runtime import (Collection, Instrumentation, collecting,
                               installed, instruments)
from repro.wids.runtime import wids_watch


def test_no_context_means_none():
    assert instruments() == Instrumentation()


def test_collecting_installs_and_restores():
    with collecting() as col:
        assert instruments().metrics is col.registry
        assert instruments().profiler is None  # profile off by default
    assert instruments().metrics is None


def test_collecting_profile_enables_profiler():
    with collecting(profile=True) as col:
        assert instruments().profiler is col.profiler
        assert col.profiler is not None
    assert instruments().profiler is None


def test_disabled_metrics_hide_the_registry():
    with collecting(metrics=False) as col:
        # Instrumentation sees "off" ...
        assert instruments().metrics is None
        # ... and the context's own registry stays empty.
        assert col.snapshot() == {}


def test_contexts_nest_innermost_wins():
    with collecting() as outer:
        outer.registry.incr("outer.only")
        with collecting() as inner:
            assert instruments().metrics is inner.registry
            instruments().metrics.incr("inner.only")
        assert instruments().metrics is outer.registry
    assert "inner.only" not in outer.snapshot()


def test_context_restored_when_body_raises():
    with pytest.raises(RuntimeError):
        with collecting():
            raise RuntimeError("trial died")
    assert instruments().metrics is None
    assert instruments().profiler is None


def test_recording_through_the_ambient_context():
    with collecting(profile=True) as col:
        m = instruments().metrics
        m.incr("radio.deliveries", 3)
        with instruments().profiler.span("radio.fanout"):
            pass
    snap = col.snapshot()
    assert snap["radio.deliveries"]["value"] == 3
    assert col.profiler.count("radio.fanout") == 1


def test_collection_defaults():
    col = Collection()
    assert len(col.registry) == 0
    assert col.profiler is None


def test_installed_rejects_unknown_fields():
    with pytest.raises(TypeError):
        with installed(nonsense=1):
            pass
    assert instruments() == Instrumentation()


# ----------------------------------------------------------------------
# every observer shares the one record
# ----------------------------------------------------------------------

#: context -> (field it installs, how to read the installed object back)
_OBSERVERS = {
    "collecting": (lambda: collecting(profile=True), "metrics",
                   lambda col: col.registry),
    "recording": (recording, "recorder", lambda rec: rec),
    "wids_watch": (wids_watch, "wids", lambda watch: watch),
}
_PAIRS = [(a, b) for a, b in product(_OBSERVERS, repeat=2) if a != b]


@pytest.mark.parametrize("outer,inner", _PAIRS)
@pytest.mark.parametrize("raises", [False, True])
def test_nested_observers_keep_each_other_visible(outer, inner, raises):
    outer_cm, outer_field, outer_obj = _OBSERVERS[outer]
    inner_cm, inner_field, inner_obj = _OBSERVERS[inner]
    with pytest.raises(RuntimeError) if raises else nullcontext():
        with outer_cm() as a:
            after_outer = instruments()
            assert getattr(after_outer, outer_field) is outer_obj(a)
            try:
                with inner_cm() as b:
                    record = instruments()
                    assert getattr(record, inner_field) is inner_obj(b)
                    # The inner observer leaves the outer one in place.
                    assert getattr(record, outer_field) is outer_obj(a)
                    if raises:
                        raise RuntimeError("trial died")
            finally:
                assert instruments() is after_outer
    assert instruments() == Instrumentation()
