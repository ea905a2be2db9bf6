"""Determinism golden tests.

The whole reproduction rests on one property: a simulated world is a
pure function of its seed.  These tests pin that down at three levels —
the full FIG2 download-MITM world (trace-for-trace), the campaign
layer (serial and parallel sweeps must agree bit-for-bit), and the
observability layer (enabling metrics, profiling, the flight recorder
or the ambient WIDS watch must not change any simulated result: the
zero-perturbation invariant).
"""

import pytest

from repro.attacks.sniffer import MonitorSniffer
from repro.core.campaign import run_trials
from repro.core.registry import SeededExperiment, get_experiment
from repro.core.scenario import build_corp_scenario
from repro.fleet import run_campaign
from repro.obs import collecting
from repro.obs.lineage import recording
from repro.radio.propagation import Position
from repro.wids import Scorecard, WidsEngine, wids_watch
from tests.integration.gen_experiment_goldens import golden_runs, result_digest


def _run_fig2_world(seed):
    """One FIG2 world: rogue + netsed MITM against a downloading victim."""
    scenario = build_corp_scenario(seed=seed)
    scenario.arm_download_mitm()
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    outcome = scenario.run_download_experiment(victim)
    categories = [rec.category for rec in scenario.sim.trace.records]
    counters = {
        "events_dispatched": scenario.sim.events_dispatched,
        "trace_by_category": scenario.sim.trace.summary()["by_category"],
        "netsed_replacements": scenario.rogue.netsed.total_replacements,
        "netsed_connections": scenario.rogue.netsed.connections_proxied,
        "compromised": outcome.compromised,
        "md5_ok": outcome.md5_ok,
        "final_time": scenario.sim.now,
    }
    return categories, counters


def fig2_compromise_trial(seed):
    """Module-level trial (picklable) for the campaign-level golden test."""
    scenario = build_corp_scenario(seed=seed)
    scenario.arm_download_mitm()
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    outcome = scenario.run_download_experiment(victim)
    return 1.0 if outcome.compromised else 0.0


def test_fig2_world_identical_for_identical_seed():
    categories_a, counters_a = _run_fig2_world(seed=11)
    categories_b, counters_b = _run_fig2_world(seed=11)
    assert categories_a == categories_b  # the full event-category sequence
    assert counters_a == counters_b


def test_fig2_world_identical_under_scalar_and_vector_kernels(monkeypatch):
    """End-to-end kernel differential on a *real* scenario.

    The hypothesis harness (tests/radio/test_kernel_equivalence.py)
    sweeps synthetic worlds; this golden locks the same claim on the
    full FIG2 rogue-MITM world: substituting the per-pair scalar oracle
    for the vectorized kernel in every medium the scenario builds must
    not move one trace record or counter.  (Every other test in this
    file runs under the vectorized kernel, so serial==parallel and the
    zero-perturbation goldens already exercise it implicitly.)
    """
    import repro.radio.medium as radio_medium
    from repro.sim.kernel import Simulator
    from tests.radio.scalar_oracle import ScalarKernel

    vector_cats, vector_counters = _run_fig2_world(seed=11)
    monkeypatch.setattr(radio_medium, "VectorKernel", ScalarKernel)
    assert isinstance(radio_medium.Medium(Simulator(seed=0)).kernel,
                      ScalarKernel)
    scalar_cats, scalar_counters = _run_fig2_world(seed=11)
    assert vector_cats == scalar_cats
    assert vector_counters == scalar_counters


def test_fig2_campaign_identical_serial_vs_parallel():
    serial = run_trials(6, fig2_compromise_trial, seed_base=300)
    parallel = run_campaign(6, fig2_compromise_trial, seed_base=300,
                            workers=4).stats
    assert serial.values == parallel.values  # bit-for-bit, not just close
    assert serial.mean == parallel.mean


# ----------------------------------------------------------------------
# zero-perturbation: observability on, off, or absent must not change
# one bit of any simulated result
# ----------------------------------------------------------------------

def _as_unrecorded(node):
    """``node`` as an unrecorded run holds it: every alert's
    ``trace_ids`` is empty, because only the flight recorder assigns
    lineage ids.  The ids are the recorder's output, not a change to the
    simulated world."""
    if isinstance(node, dict):
        return {key: [] if key == "trace_ids" else _as_unrecorded(value)
                for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_as_unrecorded(value) for value in node]
    return node


#: The first pinned run of each experiment.  E-VPNOH's second, default
#: length run is there for its claims; its 4 s run drives the same code.
_FIRST_RUNS: dict = {}
for _run in golden_runs():
    _FIRST_RUNS.setdefault(_run[0], _run)
GOLDEN_RUNS = list(_FIRST_RUNS.values())


@pytest.mark.parametrize("exp_id,kwargs,sha256", GOLDEN_RUNS,
                         ids=[exp_id for exp_id, _, _ in GOLDEN_RUNS])
def test_experiment_payload_identical_with_obs_on_off_absent(
        exp_id, kwargs, sha256):
    """Every pinned experiment, with all instrumentation on at once and
    with metrics collection off, matches its committed digest — the
    digest of the run with no context installed at all."""
    runner = get_experiment(exp_id).runner
    with collecting(metrics=True, profile=True), recording(), wids_watch():
        everything_on = runner(**kwargs)
    with collecting(metrics=False):
        metrics_off = runner(**kwargs)
    assert result_digest(_as_unrecorded(everything_on)) == sha256
    assert result_digest(metrics_off) == sha256


def golden_trial(index):
    """Fleet trial: campaign seed ``index`` runs the index-th pinned run."""
    exp_id, kwargs, _ = GOLDEN_RUNS[index]
    return get_experiment(exp_id).runner(**kwargs)


def test_every_golden_identical_serial_vs_parallel():
    """All pinned experiments, run by two fleet workers, match the
    committed digests of their serial runs."""
    result = run_campaign(len(GOLDEN_RUNS), golden_trial, seed_base=0,
                          workers=2)
    assert result.workers == 2 and result.failures == []
    digests = [result_digest(result.per_seed[i])
               for i in range(len(GOLDEN_RUNS))]
    assert digests == [sha256 for _, _, sha256 in GOLDEN_RUNS]


def test_fig2_trace_contents_identical_with_obs_enabled():
    categories_off, counters_off = _run_fig2_world(seed=11)
    with collecting(metrics=True, profile=True) as col:
        categories_on, counters_on = _run_fig2_world(seed=11)
    assert categories_on == categories_off  # full event-category sequence
    assert counters_on == counters_off
    # and the run actually recorded something — the invariant is
    # "observation changes nothing", not "nothing was observed"
    assert col.registry.value("radio.deliveries") > 0
    assert col.profiler.count("radio.fanout") > 0


def test_fig2_world_identical_with_flight_recorder_on_off_absent():
    absent_cats, absent_counters = _run_fig2_world(seed=11)
    with recording() as rec:
        on_cats, on_counters = _run_fig2_world(seed=11)
    # tiny ring: heavy eviction pressure must not leak into the sim either
    with recording(capacity=2, max_hops=1):
        tiny_cats, tiny_counters = _run_fig2_world(seed=11)
    assert on_cats == absent_cats == tiny_cats
    assert on_counters == absent_counters == tiny_counters
    # the recorder did observe the world it didn't perturb: the full
    # MITM chain including the netsed rewrite is in the ring
    assert len(rec) > 0
    rewrites = list(rec.find_hops("netsed", "rewrite"))
    assert rewrites, "FIG2 world must record the netsed rewrite hop"
    lineage, hop = rewrites[0]
    assert hop.detail["replacements"] >= 1
    assert "before" in hop.detail and "after" in hop.detail
    # causal chain reaches back past the bridge to the victim's radio
    chain = rec.ancestors(lineage.trace_id)
    assert len(chain) > 1
    # and forward to the tampered payload landing on the victim's NIC
    assert any(h.layer == "nic" and h.action == "deliver"
               and h.host.startswith("victim")
               for d in rec.descendants(lineage.trace_id) for h in d.hops)


def test_recorder_capacity_bounds_hold_under_a_full_world():
    with recording(capacity=32, max_hops=4) as rec:
        _run_fig2_world(seed=11)
    assert len(rec) <= 32
    assert rec.evicted > 0  # FIG2 generates far more than 32 frames
    assert all(len(ln.hops) <= 4 for ln in rec.lineages())
    # raw captures are bounded by the frames themselves
    assert sum(len(ln.raw or b"") for ln in rec.lineages()) < 32 * 4096


def test_fleet_merged_metrics_identical_serial_vs_parallel():
    serial = run_campaign(4, fig2_compromise_trial, seed_base=300,
                          collect_metrics=True)
    parallel = run_campaign(4, fig2_compromise_trial, seed_base=300,
                            workers=2, collect_metrics=True)
    # per-trial values unchanged by collection, serial == parallel
    assert serial.per_seed == parallel.per_seed
    # per-trial snapshots agree seed-for-seed ...
    assert serial.metrics == parallel.metrics
    # ... and seed-order reduction yields the same merged registry
    assert serial.merged_metrics.snapshot() == parallel.merged_metrics.snapshot()
    assert serial.merged_metrics.value("radio.deliveries") > 0


def test_collect_metrics_does_not_change_trial_values():
    plain = run_campaign(4, fig2_compromise_trial, seed_base=300)
    collected = run_campaign(4, fig2_compromise_trial, seed_base=300,
                             collect_metrics=True)
    assert plain.per_seed == collected.per_seed
    assert plain.metrics == {}
    assert plain.merged_metrics is None


def test_fig2_world_identical_with_ambient_wids_on_off_absent():
    """The radio-layer WIDS hook obeys the zero-perturbation discipline.

    The ambient watch taps :meth:`Medium._fan_out` before any
    per-receiver RNG draw and never registers a radio port, so the
    simulated world is bit-identical with the watch installed,
    installed-with-heavy-eviction, or absent — while the watch itself
    still observes the attack.
    """
    absent_cats, absent_counters = _run_fig2_world(seed=11)
    with wids_watch() as watch:
        on_cats, on_counters = _run_fig2_world(seed=11)
    # tiny capture ring: eviction pressure must not leak into the sim
    with wids_watch(capacity=8) as tiny:
        tiny_cats, tiny_counters = _run_fig2_world(seed=11)
    assert on_cats == absent_cats == tiny_cats
    assert on_counters == absent_counters == tiny_counters
    # the watch did observe the world it didn't perturb
    assert watch.frames_seen() > 0
    detectors = {a.detector for a in watch.alerts()}
    assert {"fingerprint", "multichannel"} <= detectors
    assert tiny.frames_seen() == watch.frames_seen()


def _run_wids_sniffer_world(seed, mode):
    """One FIG2 world carrying a monitor sniffer; ``mode`` controls the
    engine: "absent", "attached", or "detached" (attached then removed
    mid-run).  The sniffer is present in every mode so the worlds are
    built identically — only the (purely observational) engine varies."""
    scenario = build_corp_scenario(seed=seed)
    sniffer = MonitorSniffer(scenario.sim, scenario.medium,
                             Position(15.0, 5.0))
    engine = WidsEngine()
    detach = engine.attach(sniffer.capture) if mode != "absent" else None
    scenario.arm_download_mitm()
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    if mode == "detached":
        detach()
    outcome = scenario.run_download_experiment(victim)
    categories = [rec.category for rec in scenario.sim.trace.records]
    counters = {
        "events_dispatched": scenario.sim.events_dispatched,
        "compromised": outcome.compromised,
        "final_time": scenario.sim.now,
        "frames_captured": len(sniffer.capture),
    }
    return categories, counters, engine


def test_fig2_world_identical_with_engine_attached_detached_absent():
    absent_cats, absent_counters, _ = _run_wids_sniffer_world(11, "absent")
    on_cats, on_counters, attached = _run_wids_sniffer_world(11, "attached")
    mid_cats, mid_counters, detached = _run_wids_sniffer_world(11, "detached")
    assert on_cats == absent_cats == mid_cats
    assert on_counters == absent_counters == mid_counters
    # the attached engine alerted on the rogue without changing anything
    assert attached.alerts
    # the detached engine saw only the pre-detach prefix of the stream
    assert 0 < detached.frames_seen < attached.frames_seen


def test_wids_eval_merged_scorecard_identical_serial_vs_parallel():
    """The acceptance bar for ``sweep --wids``: per-seed ``wids.eval.*``
    registries reduce in seed order to the same merged scorecard
    whether the trials ran serially or across workers."""
    trial = SeededExperiment("E-WIDS")
    serial = run_campaign(2, trial, seed_base=40, collect_metrics=True)
    parallel = run_campaign(2, trial, seed_base=40, workers=2,
                            collect_metrics=True)
    assert serial.per_seed == parallel.per_seed
    assert serial.metrics == parallel.metrics
    assert serial.merged_metrics.snapshot() == parallel.merged_metrics.snapshot()
    card_s = Scorecard.from_registry(serial.merged_metrics)
    card_p = Scorecard.from_registry(parallel.merged_metrics)
    assert card_s.to_json_dict() == card_p.to_json_dict()
    rows = card_s.rows()
    assert rows
    for row in rows:
        # 2 trials x 4 worlds each, zero false positives throughout
        assert row.tp + row.fp + row.fn + row.tn == 8
        assert row.fp == 0


def test_fleet_lineage_samples_identical_serial_vs_parallel():
    serial = run_campaign(3, fig2_compromise_trial, seed_base=300,
                          flight_recorder=16)
    parallel = run_campaign(3, fig2_compromise_trial, seed_base=300,
                            workers=3, flight_recorder=16)
    # recording never changes trial values, and the shipped samples are
    # a pure function of the seed: serial == parallel, dict-for-dict
    plain = run_campaign(3, fig2_compromise_trial, seed_base=300)
    assert serial.per_seed == parallel.per_seed == plain.per_seed
    assert serial.lineages == parallel.lineages
    assert set(serial.lineages) == {300, 301, 302}
    assert all(len(sample) <= 16 for sample in serial.lineages.values())
    assert serial.merged_lineages == parallel.merged_lineages
    assert [ln["seed"] for ln in serial.merged_lineages] == \
        sorted(ln["seed"] for ln in serial.merged_lineages)
    assert plain.lineages == {} and plain.merged_lineages == []


def test_fig2_world_matches_committed_digest():
    """Cross-era pin: the seed-11 FIG2 world, hashed trace-for-trace.

    ``fig2_golden.json`` was generated when ``repro.rsn`` landed and
    verified bit-identical against the pre-RSN tree, so it proves the
    RSN/SAE/PMF machinery is invisible until asked for — and from now
    on it catches *any* change that moves a legacy world.
    """
    import hashlib
    import json
    from pathlib import Path

    golden = json.loads(
        (Path(__file__).parent / "fig2_golden.json").read_text())
    categories, counters = _run_fig2_world(seed=golden["seed"])
    blob = json.dumps({"categories": categories, "counters": counters},
                      sort_keys=True, default=str).encode()
    assert counters["events_dispatched"] == golden["events_dispatched"]
    assert hashlib.sha256(blob).hexdigest() == golden["sha256"]
