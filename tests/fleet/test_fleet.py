"""The fleet campaign engine: determinism, fault containment, reduction.

Trial callables live at module level so they survive pickling under any
multiprocessing start method (fork inherits them anyway; spawn needs
the names importable).
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.fleet import (campaign_stats, run_campaign, FAIL_CRASH,
                         FAIL_ERROR, FAIL_TIMEOUT)
from repro.sim.rng import SimRandom


def rng_trial(seed):
    """Cheap deterministic trial: value depends only on the seed."""
    rng = SimRandom(seed)
    return float(rng.randint(0, 1000)) / 1000.0


def failing_trial(seed):
    if seed == 1005:
        raise ValueError("seed 1005 always fails")
    return 1.0


def exiting_trial(seed):
    if seed == 1003:
        os._exit(17)  # hard death: no exception, no cleanup
    return 0.5


def killed_trial(seed):
    if seed == 1003:
        os.kill(os.getpid(), signal.SIGKILL)  # as the OOM killer would
    return 0.5


def sleepy_trial(seed):
    if seed == 1002:
        time.sleep(60)  # interrupted by the worker's SIGALRM
    return 2.0


def signal_proof_hang_trial(seed):
    """Hang that the worker-side alarm cannot break (SIGALRM blocked)."""
    if seed == 1001:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        time.sleep(60)
    return 1.0


def metric_trial(seed):
    """Records seed-dependent metrics through the ambient obs context."""
    from repro.obs.runtime import instruments
    m = instruments().metrics
    if m is not None:
        m.incr("fleet.test.calls")
        m.incr("fleet.test.seed_sum", seed)
        m.set_gauge("fleet.test.last_seed", seed)
        m.add_time("fleet.test.duration", float(seed) / 1000.0)
    return float(seed)


# ----------------------------------------------------------------------
# determinism: worker count must not matter
# ----------------------------------------------------------------------

def test_parallel_aggregate_bit_identical_to_serial():
    serial = run_campaign(40, rng_trial, workers=1)
    parallel = run_campaign(40, rng_trial, workers=4)
    assert serial.stats.values == parallel.stats.values  # bit-for-bit
    assert serial.per_seed == parallel.per_seed
    assert serial.failures == parallel.failures == []


def test_parallel_runs_are_repeatable():
    first = run_campaign(24, rng_trial, workers=3)
    second = run_campaign(24, rng_trial, workers=3)
    assert first.stats.values == second.stats.values


# ----------------------------------------------------------------------
# fault containment: one attempt per trial; failures are recorded data
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 3])
def test_raising_trial_recorded_not_fatal(workers):
    result = run_campaign(8, failing_trial, workers=workers)
    assert result.ok == 7
    assert [f.seed for f in result.failures] == [1005]
    failure = result.failures[0]
    assert failure.kind == FAIL_ERROR
    assert "seed 1005 always fails" in failure.message
    assert "Traceback" in failure.message  # the formatted traceback
    assert result.stats.n == 7  # failed trial contributes nothing


def test_timeout_enforced_by_worker_alarm():
    started = time.monotonic()
    result = run_campaign(6, sleepy_trial, workers=2, timeout=0.5)
    assert time.monotonic() - started < 30  # nowhere near the 60s sleep
    assert result.ok == 5
    assert [(f.seed, f.kind) for f in result.failures] == [(1002, FAIL_TIMEOUT)]


def test_timeout_enforced_by_parent_watchdog():
    """A trial hung with SIGALRM blocked is killed from the outside."""
    result = run_campaign(4, signal_proof_hang_trial, workers=2,
                          timeout=0.5)
    assert result.ok == 3
    assert [(f.seed, f.kind) for f in result.failures] == [(1001, FAIL_TIMEOUT)]
    assert "killed by watchdog" in result.failures[0].message
    assert multiprocessing.active_children() == []


def test_dead_worker_detected_and_replaced():
    for crashing_trial, exitcode in [(exiting_trial, 17),
                                     (killed_trial, -signal.SIGKILL)]:
        result = run_campaign(6, crashing_trial, workers=2)
        assert result.ok == 5  # the fleet was restaffed and finished
        assert [(f.seed, f.kind) for f in result.failures] == \
            [(1003, FAIL_CRASH)]
        assert f"exited with code {exitcode}" in result.failures[0].message
        assert multiprocessing.active_children() == []


def test_serial_timeout_path():
    result = run_campaign(4, sleepy_trial, workers=1, timeout=0.5)
    assert result.ok == 3
    assert [(f.seed, f.kind) for f in result.failures] == [(1002, FAIL_TIMEOUT)]


# ----------------------------------------------------------------------
# metrics shipping
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_collect_metrics_ships_per_trial_snapshots(workers):
    result = run_campaign(4, metric_trial, workers=workers,
                          collect_metrics=True)
    assert sorted(result.metrics) == [1000, 1001, 1002, 1003]
    for seed, snap in result.metrics.items():
        assert snap["fleet.test.calls"]["value"] == 1
        assert snap["fleet.test.seed_sum"]["value"] == seed
        assert snap["fleet.test.last_seed"]["value"] == seed
    # values are unchanged by collection
    assert result.stats.values == [1000.0, 1001.0, 1002.0, 1003.0]


def test_merged_metrics_obey_seed_order_gauge_law():
    result = run_campaign(3, metric_trial, workers=2, collect_metrics=True)
    merged = result.merged_metrics
    assert merged.value("fleet.test.calls") == 3
    assert merged.value("fleet.test.seed_sum") == 1000 + 1001 + 1002
    # gauge: the last shard in *seed* order wins, not completion order
    gauge = merged.get("fleet.test.last_seed")
    assert gauge.value == 1002
    assert (gauge.min, gauge.max) == (1000, 1002)
    timer = merged.get("fleet.test.duration")
    assert timer.count == 3


def test_collect_metrics_off_by_default():
    result = run_campaign(2, metric_trial, workers=1)
    assert result.metrics == {}
    assert result.merged_metrics is None
    assert result.to_json_dict()["metrics"] is None


def lineage_trial(seed):
    """Transmits `seed % 3 + 1` frames through an ambient flight recorder."""
    from repro.obs.runtime import instruments
    rec = instruments().recorder
    if rec is not None:
        for i in range(seed % 3 + 1):
            tid = rec.begin("dot11", f"host{seed}", float(i))
            rec.hop("radio", "tx", trace_id=tid, host=f"host{seed}")
            rec.attach_raw(tid, bytes(2000))
    return float(seed)


@pytest.mark.parametrize("workers", [1, 2])
def test_flight_recorder_ships_truncated_lineage_samples(workers):
    result = run_campaign(4, lineage_trial, seed_base=1000, workers=workers,
                          flight_recorder=2)
    assert result.stats.values == [1000.0, 1001.0, 1002.0, 1003.0]
    assert sorted(result.lineages) == [1000, 1001, 1002, 1003]
    # ring capacity truncates worker-side: seed 1001 made 3 frames, 2 ship
    assert [len(result.lineages[s]) for s in sorted(result.lineages)] == \
        [2, 2, 1, 2]
    # raw bytes are clipped for IPC
    for sample in result.lineages.values():
        for ln in sample:
            assert len(bytes.fromhex(ln["raw"])) <= 256
    merged = result.merged_lineages
    assert [ln["seed"] for ln in merged] == [1000, 1000, 1001, 1001,
                                             1002, 1003, 1003]


def test_flight_recorder_off_by_default():
    result = run_campaign(2, lineage_trial, workers=1)
    assert result.lineages == {}
    assert result.merged_lineages == []
    assert result.to_json_dict()["lineages"] is None


def test_flight_recorder_composes_with_metrics_and_traces():
    result = run_campaign(2, metric_trial, workers=1,
                          collect_metrics=True, flight_recorder=4)
    # both extras ride the same "ok" message
    assert sorted(result.metrics) == [1000, 1001]
    assert sorted(result.lineages) == [1000, 1001]  # empty samples still ship
    assert result.stats.values == [1000.0, 1001.0]


# ----------------------------------------------------------------------
# reduction helpers
# ----------------------------------------------------------------------

def test_campaign_stats_reduces_in_seed_order():
    per_index = {i: float(i) for i in reversed(range(10))}  # completion order
    stats = campaign_stats(per_index)
    assert stats.values == [float(i) for i in range(10)]


def test_campaign_stats_skips_failed_indices():
    per_index = {0: 1.0, 2: 3.0}
    stats = campaign_stats(per_index)
    assert stats.values == [1.0, 3.0]


def test_campaign_stats_none_for_payload_sweeps():
    assert campaign_stats({0: {"rows": []}}) is None


def test_empty_campaign():
    result = run_campaign(0, rng_trial, workers=3)
    assert result.ok == 0
    assert result.failures == []
    assert result.stats.n == 0


# ----------------------------------------------------------------------
# on_snapshot: each successful trial's metrics snapshot, in the parent
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_on_snapshot_fires_once_per_successful_trial(workers):
    seen = []
    result = run_campaign(
        6, failing_trial, workers=workers,
        on_snapshot=lambda index, snap: seen.append((index, os.getpid())))
    assert [f.seed for f in result.failures] == [1005]
    # once per trial that succeeded, never for the failed one
    assert sorted(index for index, _ in seen) == [0, 1, 2, 3, 4]
    assert {pid for _, pid in seen} == {os.getpid()}  # in the parent


def test_on_snapshot_composes_with_collect_metrics():
    delivered = {}
    result = run_campaign(3, metric_trial, workers=2, collect_metrics=True,
                          on_snapshot=delivered.__setitem__)
    # the payload is the snapshot the result keeps for that seed
    assert {1000 + i: snap for i, snap in delivered.items()} == result.metrics
    assert delivered[1]["fleet.test.seed_sum"]["value"] == 1001
    assert result.stats.values == [1000.0, 1001.0, 1002.0]


def test_on_snapshot_turns_on_metrics_collection():
    seen = []
    result = run_campaign(2, metric_trial,
                          on_snapshot=lambda index, snap: seen.append(snap))
    assert sorted(result.metrics) == [1000, 1001]
    assert seen == [result.metrics[1000], result.metrics[1001]]


@pytest.mark.parametrize("workers", [1, 2])
def test_raising_listener_aborts_sweep(workers):
    """A listener that raises aborts the sweep, and no worker survives it."""
    calls = []

    def bad_listener(index, snapshot):
        calls.append(index)
        raise RuntimeError("listener broke")

    with pytest.raises(RuntimeError, match="listener broke"):
        run_campaign(3, metric_trial, workers=workers,
                     on_snapshot=bad_listener)
    assert len(calls) == 1  # the first delivery raised, and nothing after
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# CampaignResult.to_json_dict round-trip
# ----------------------------------------------------------------------

def rich_trial(seed):
    """A counter and a histogram in one trial, for payload round-trips."""
    from repro.obs.runtime import instruments

    m = instruments().metrics
    if m is not None:
        m.incr("fleet.test.calls")
        m.observe("fleet.test.hist", float(seed % 7), lo=0.0, hi=8.0, bins=4)
    return float(seed)


def test_to_json_dict_round_trips_through_json():
    import json as _json

    result = run_campaign(3, rich_trial, workers=2,
                          collect_metrics=True, flight_recorder=4)
    doc = result.to_json_dict()
    # the document survives an encode/decode cycle unchanged
    rehydrated = _json.loads(_json.dumps(doc))
    assert rehydrated == _json.loads(_json.dumps(doc))
    assert doc["trials"] == 3 and doc["ok"] == 3
    assert [r["seed"] for r in doc["results"]] == [1000, 1001, 1002]
    # merged metrics payload: counters add across the three seeds
    assert doc["metrics"]["fleet.test.calls"]["value"] == 3
    from repro.obs.metrics import MetricsRegistry
    merged = MetricsRegistry.from_snapshot(doc["metrics"])
    assert merged.get("fleet.test.hist").total == 3


def test_to_json_dict_is_seed_order_stable_across_worker_counts():
    import json as _json

    docs = []
    for workers in (1, 2, 3):
        result = run_campaign(4, rich_trial, workers=workers,
                              collect_metrics=True)
        doc = result.to_json_dict()
        doc.pop("elapsed_s")          # wall clock varies
        doc.pop("workers")            # the knob under test
        docs.append(_json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1] == docs[2]


def test_to_json_dict_lineages_payload():
    result = run_campaign(2, lineage_trial, workers=1, flight_recorder=8)
    doc = result.to_json_dict()
    assert doc["lineages"], "flight recorder shipped nothing"
    seeds = {ln["seed"] for ln in doc["lineages"]}
    assert seeds == {1000, 1001}
    # seed annotation + seed-order concatenation
    assert [ln["seed"] for ln in doc["lineages"]] \
        == sorted(ln["seed"] for ln in doc["lineages"])
