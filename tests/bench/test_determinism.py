"""Every benchmark's work is pinned to its committed baseline.

Two invocations of every registered benchmark must produce identical
payloads — tables, counters, hit rates, CRCs — and those payloads must
equal the ``payload`` committed in its ``BENCH_<area>.json``.  Timing
lands only in ``BenchSample.value``; a payload that varied between runs
would make the baselines churn on every ``--update`` and would mark a
benchmark whose *workload* (not speed) is nondeterministic.  A payload
that differs from the committed one means the workload changed, so the
committed value no longer measures the same thing: re-baseline on
purpose with ``python -m repro bench --update``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.registry import all_specs
from repro.bench.runner import load_baselines

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


@pytest.mark.parametrize("spec", all_specs(),
                         ids=lambda s: f"{s.area}/{s.metric}")
def test_payload_identical_across_invocations(spec):
    first = spec.run()
    second = spec.run()
    assert first.payload, f"{spec.key} returned an empty payload"
    assert first.value == first.value, f"{spec.key} returned NaN"
    committed = load_baselines(ROOT, [spec.area])[spec.area]["metrics"]
    assert first.payload == second.payload \
        == committed[spec.metric]["payload"], spec.key
    # Payloads must also be JSON-clean (they get committed verbatim)
    # and free of anything that smells like a wall-clock measurement.
    encoded = json.dumps(first.payload, sort_keys=True)
    decoded = json.loads(encoded)
    assert decoded == first.payload
    for key in first.payload:
        assert not any(t in key for t in ("elapsed", "seconds", "_ms", "_s")), \
            f"{spec.key}: payload key {key!r} looks like a timing"
