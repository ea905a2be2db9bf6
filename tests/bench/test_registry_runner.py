"""Registry, runner, emission, and gate behavior for ``repro.bench``.

The acceptance test for the whole harness lives here: a synthetic
benchmark is registered, baselined, then an injected slowdown must be
caught by the differ and fail the CLI gate, while the unperturbed run
passes — end to end through the same code path CI's ``bench-gate``
job executes.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import registry as breg
from repro.bench.cli import cmd_bench
from repro.bench.diff import diff_baselines
from repro.bench.registry import BenchSample, all_specs, register
from repro.bench.runner import (baseline_path, capture_environment,
                                load_baselines, run_spec, run_suite,
                                write_baselines)

AREA = "synthetic"


@pytest.fixture
def synthetic_spec():
    """Register a deterministic-payload, controllable-value benchmark."""
    state = {"values": [10.0], "calls": 0}

    @register(AREA, "ops_per_s", unit="ops/s", higher_is_better=True,
              tolerance=0.5)
    def synthetic(scale: float = 1.0):
        state["calls"] += 1
        value = state["values"][min(state["calls"], len(state["values"])) - 1]
        return BenchSample(value=value, payload={"scale": scale, "n": 7})

    spec = breg._REGISTRY[(AREA, "ops_per_s")]
    yield spec, state
    del breg._REGISTRY[(AREA, "ops_per_s")]


def test_duplicate_registration_rejected(synthetic_spec):
    with pytest.raises(ValueError, match="duplicate"):
        register(AREA, "ops_per_s", unit="ops/s", higher_is_better=True)(
            lambda scale=1.0: BenchSample(1.0))


def test_registry_lists_builtin_areas():
    areas = {spec.area for spec in all_specs()}
    # The five areas the ISSUE names, plus the hot loops under them.
    assert {"radio", "wire", "fleet", "wids", "trace"} <= areas


def test_unknown_area_filter_raises():
    with pytest.raises(KeyError, match="unknown benchmark area"):
        all_specs(["no-such-area"])


def test_run_spec_takes_median_of_k(synthetic_spec):
    spec, state = synthetic_spec
    state["values"] = [1.0, 100.0, 3.0]
    entry = run_spec(spec, repeat=3)
    assert entry["value"] == 3.0                # median, not mean/min
    assert entry["samples"] == [1.0, 100.0, 3.0]
    assert entry["repeat"] == 3
    assert entry["unit"] == "ops/s" and entry["tolerance"] == 0.5
    assert entry["payload"] == {"scale": 1.0, "n": 7}


def test_run_spec_rejects_bad_repeat(synthetic_spec):
    spec, _ = synthetic_spec
    with pytest.raises(ValueError):
        run_spec(spec, repeat=0)


def test_environment_capture_fields():
    env = capture_environment(mode="smoke")
    for key in ("python", "platform", "pythonhashseed", "commit",
                "usable_cores", "mode"):
        assert key in env, key
    assert env["mode"] == "smoke"
    assert env["usable_cores"] >= 1


def test_suite_doc_schema_and_emission(tmp_path, synthetic_spec):
    docs = run_suite(area_filter=[AREA], repeat=2)
    assert set(docs) == {AREA}
    doc = docs[AREA]
    assert doc["schema"] == 1 and doc["area"] == AREA
    assert "environment" in doc and "metrics" in doc
    assert set(doc["metrics"]) == {"ops_per_s"}

    paths = write_baselines(docs, str(tmp_path))
    assert paths == [baseline_path(str(tmp_path), AREA)]
    assert paths[0].endswith(f"BENCH_{AREA}.json")
    loaded = load_baselines(str(tmp_path))
    assert loaded == {AREA: json.loads(json.dumps(doc))}

    # Emission is deterministic: writing the same docs again is
    # byte-identical (sorted keys, fixed rounding).
    first = open(paths[0]).read()
    write_baselines(docs, str(tmp_path))
    assert open(paths[0]).read() == first


def test_smoke_mode_scales_down_and_single_repeat(synthetic_spec):
    spec, state = synthetic_spec
    docs = run_suite(area_filter=[AREA], repeat=5, smoke=True)
    entry = docs[AREA]["metrics"]["ops_per_s"]
    assert entry["repeat"] == 1                 # smoke forces k=1
    assert entry["payload"]["scale"] == 0.25    # and the smoke scale
    assert docs[AREA]["environment"]["mode"] == "smoke"


def test_injected_synthetic_slowdown_is_caught(synthetic_spec):
    """The acceptance criterion: a slowdown beyond tolerance fails."""
    spec, state = synthetic_spec
    baseline = run_suite(area_filter=[AREA], repeat=1)

    # Within tolerance (50%): 10 -> 6 must pass.
    state.update(values=[6.0], calls=0)
    drift = run_suite(area_filter=[AREA], repeat=1)
    report = diff_baselines(baseline, drift)
    assert report.ok() and not report.regressions

    # Beyond tolerance: 10 -> 2 (5x slowdown) must be flagged.
    state.update(values=[2.0], calls=0)
    slow = run_suite(area_filter=[AREA], repeat=1)
    report = diff_baselines(baseline, slow)
    assert not report.ok()
    (reg,) = report.regressions
    assert reg.name == f"{AREA}/ops_per_s"
    assert reg.worsening == pytest.approx(0.8)

    # An improvement is never flagged: 10 -> 1000.
    state.update(values=[1000.0], calls=0)
    fast = run_suite(area_filter=[AREA], repeat=1)
    assert diff_baselines(baseline, fast).ok()


def test_cli_gate_end_to_end(tmp_path, synthetic_spec, capsys):
    """--update then --check passes; a tampered baseline fails with 1."""
    spec, state = synthetic_spec
    rc = cmd_bench([AREA], 1, False, None, None, str(tmp_path))
    assert rc == 0
    path = baseline_path(str(tmp_path), AREA)
    assert json.load(open(path))["metrics"]["ops_per_s"]["value"] == 10.0

    state.update(calls=0)
    rc = cmd_bench([AREA], 1, False, None, str(tmp_path), None)
    assert rc == 0
    assert "bench gate: ok" in capsys.readouterr().out

    # Simulate a slowdown by raising the committed expectation 10x.
    doc = json.load(open(path))
    doc["metrics"]["ops_per_s"]["value"] = 100.0
    with open(path, "w") as fh:
        json.dump(doc, fh)
    state.update(calls=0)
    rc = cmd_bench([AREA], 1, False, None, str(tmp_path), None)
    assert rc == 1
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.out
    assert "bench gate: FAIL" in captured.err


def test_cli_check_without_baselines_fails(tmp_path, synthetic_spec, capsys):
    rc = cmd_bench([AREA], 1, False, None, str(tmp_path), None)
    assert rc == 1
    assert "no BENCH_*.json baselines" in capsys.readouterr().err


def test_cli_json_output(tmp_path, synthetic_spec):
    out = tmp_path / "combined.json"
    rc = cmd_bench([AREA], 1, False, str(out), None, None)
    assert rc == 0
    combined = json.load(open(out))
    assert combined["schema"] == 1
    assert combined["areas"][AREA]["metrics"]["ops_per_s"]["value"] == 10.0


def test_committed_baselines_cover_the_issue_areas():
    """The repo ships >= 5 BENCH_<area>.json at the root, one per claim."""
    import os

    root = os.path.join(os.path.dirname(__file__), "..", "..")
    docs = load_baselines(root)
    assert {"radio", "wire", "fleet", "wids", "trace"} <= set(docs)
    assert len(docs) >= 5
    wire = docs["wire"]["metrics"]
    assert "checksum_mb_per_s" in wire and "encode_cache_hit_rate" in wire
    assert "fanout_frames_per_s" in docs["radio"]["metrics"]
    assert "eval_alerts_per_s" in docs["wids"]["metrics"]
    assert "overhead_ratio" in docs["trace"]["metrics"]
    # Every committed metric is still produced by the current registry:
    # the committed baselines can never silently rot.
    registered = {(s.area, s.metric) for s in all_specs()}
    for area, doc in docs.items():
        for metric in doc["metrics"]:
            assert (area, metric) in registered, (area, metric)


def test_radio_smoke_world_has_the_baseline_receivers():
    """``--smoke`` scales only the transmissions of the radio fan-out.

    Frames/s depends on how many receivers each transmission reaches, so
    a smoke world with fewer receivers than the committed full-mode
    baseline reads slower on an unchanged kernel and fails the gate.
    """
    import os

    from repro.bench.runner import SMOKE_SCALE
    from repro.bench.suite import radio_fanout

    root = os.path.join(os.path.dirname(__file__), "..", "..")
    full = load_baselines(root, ["radio"])["radio"]["metrics"]
    smoke = radio_fanout(SMOKE_SCALE).payload
    assert smoke["receivers"] == full["fanout_frames_per_s"]["payload"]["receivers"]
    assert smoke["transmissions"] < full["fanout_frames_per_s"]["payload"]["transmissions"]
