"""Hypothesis properties for the baseline differ.

The differ is the component a CI gate trusts blindly, so its contract
is pinned property-first over arbitrary metric tables:

* a metric that moved in the worse direction beyond its tolerance is
  *always* classified a regression;
* improvements and within-tolerance drift are *never* flagged;
* metrics present on only one side are reported distinctly (``new`` /
  ``missing``), never silently dropped, never conflated with value
  changes;
* the diff is total and symmetric-safe on empty inputs: an empty
  baseline yields only ``new``, an empty current run only ``missing``,
  both empty yields nothing.
"""

from __future__ import annotations

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.bench.diff import diff_baselines, diff_metrics

names = st.text(alphabet="abcdefgh_", min_size=1, max_size=8)
values = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False,
                   allow_infinity=False)
tolerances = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


def entry(value, tolerance=0.5, higher_is_better=True, unit="u"):
    return {"value": value, "tolerance": tolerance,
            "higher_is_better": higher_is_better, "unit": unit}


metric_entries = st.builds(entry, values, tolerances, st.booleans())
metric_tables = st.dictionaries(names, metric_entries, max_size=6)


def _worse_beyond(base, cur):
    """Ground-truth re-derivation: did cur worsen beyond tolerance?"""
    b, c = base["value"], cur["value"]
    tol = cur["tolerance"]
    delta = (b - c) if cur["higher_is_better"] else (c - b)
    if delta <= 0:
        return False
    return delta / abs(b) > tol


@given(metric_tables, metric_tables)
@settings(max_examples=200)
def test_partition_is_total_and_disjoint(base, cur):
    """Every metric lands in exactly one bucket; none invented."""
    deltas = diff_metrics("a", base, cur)
    seen = [d.metric for d in deltas]
    assert sorted(seen) == sorted(set(base) | set(cur))
    assert len(seen) == len(set(seen))
    for d in deltas:
        assert d.kind in ("regression", "missing", "new", "improvement",
                          "within")


@given(metric_tables, metric_tables)
@settings(max_examples=200)
def test_new_and_missing_reported_distinctly(base, cur):
    deltas = {d.metric: d for d in diff_metrics("a", base, cur)}
    for name in cur:
        if name not in base:
            assert deltas[name].kind == "new"
    for name in base:
        if name not in cur:
            assert deltas[name].kind == "missing"
    for name in set(base) & set(cur):
        assert deltas[name].kind not in ("new", "missing")


@given(names, metric_entries, values)
@settings(max_examples=300)
def test_regressions_beyond_tolerance_always_flagged(name, base, cur_value):
    """Ground truth and differ agree on every shared metric."""
    cur = dict(base, value=cur_value)
    (delta,) = diff_metrics("a", {name: base}, {name: cur})
    if _worse_beyond(base, cur):
        assert delta.kind == "regression", delta
    else:
        assert delta.kind != "regression", delta


@given(names, metric_entries, st.floats(min_value=1e-6, max_value=1.0,
                                        exclude_max=True))
@settings(max_examples=300)
def test_improvements_never_flagged(name, base, frac):
    """Any strictly-better value is an improvement, whatever the size."""
    b = base["value"]
    better = b * (1 + frac) if base["higher_is_better"] else b * (1 - frac)
    cur = dict(base, value=better)
    (delta,) = diff_metrics("a", {name: base}, {name: cur})
    assert delta.kind == "improvement"


@given(names, metric_entries, st.floats(min_value=0.0, max_value=1.0))
@example("a", entry(410.55158671723194, tolerance=2.220446049250313e-16,
                    higher_is_better=False), 1.0)
@settings(max_examples=300)
def test_within_tolerance_drift_never_flagged(name, base, frac):
    """Worsening by any fraction of the tolerance stays unflagged."""
    b, tol = base["value"], base["tolerance"]
    drift = tol * frac * 0.999          # strictly inside the band
    worse = b * (1 - drift) if base["higher_is_better"] else b * (1 + drift)
    # Rounding b * (1 + drift) can land an ulp past the band (the example
    # above), so keep only draws whose realised worsening, measured as the
    # differ measures it, is strictly inside the band.
    realised = ((b - worse) if base["higher_is_better"] else (worse - b)) / b
    assume(realised <= 0 or realised < tol)
    cur = dict(base, value=worse)
    (delta,) = diff_metrics("a", {name: base}, {name: cur})
    assert delta.kind in ("within", "improvement"), delta


@given(metric_tables)
@settings(max_examples=100)
def test_empty_baseline_is_all_new_and_passes(cur):
    """First run ever: everything is new, nothing regresses."""
    report = diff_baselines({}, {"a": {"metrics": cur}})
    assert not report.regressions and not report.missing
    assert {d.metric for d in report.new} == set(cur)
    assert report.ok()


@given(metric_tables)
@settings(max_examples=100)
def test_empty_current_is_all_missing_and_fails(base):
    """A run that produced nothing cannot pass against a real baseline."""
    report = diff_baselines({"a": {"metrics": base}}, {})
    assert not report.regressions and not report.new
    assert {d.metric for d in report.missing} == set(base)
    assert report.ok() == (len(base) == 0)
    assert report.ok(fail_on_missing=False)


def test_both_empty_is_clean():
    report = diff_baselines({}, {})
    assert report.deltas == [] and report.ok()


def test_nan_current_value_is_a_regression():
    base = {"m": entry(10.0)}
    cur = {"m": entry(math.nan)}
    (delta,) = diff_metrics("a", base, cur)
    assert delta.kind == "regression"


def test_zero_baseline_flags_any_worsening():
    base = {"m": entry(0.0, tolerance=0.5)}
    worse = {"m": entry(-1.0, tolerance=0.5)}
    better = {"m": entry(1.0, tolerance=0.5)}
    (d_worse,) = diff_metrics("a", base, worse)
    (d_better,) = diff_metrics("a", base, better)
    assert d_worse.kind == "regression" and d_worse.worsening == math.inf
    assert d_better.kind == "improvement"


def test_tolerance_read_from_current_registration():
    """Code is the source of truth: a tightened tolerance takes effect."""
    base = {"m": entry(100.0, tolerance=5.0)}
    cur = {"m": entry(40.0, tolerance=0.1)}
    (delta,) = diff_metrics("a", base, cur)
    assert delta.kind == "regression" and delta.tolerance == 0.1
