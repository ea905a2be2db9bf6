"""End-to-end benchmark of the reproduction: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {download-mitm,wep-crack,rogue-hunt} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``.
The ``S`` seconds are split over ``SEGMENTS`` timed processes run one
after another. Each imports ``repro`` and runs one warm-up trial
(interpreter start to "ready" is one set-up sample), then runs whole
rotations of its own trials for ``S / SEGMENTS`` seconds.

Times are reported in reference seconds. The host this was tuned on (a
shared 2-vCPU VM) changes speed by up to 1.6x within a minute, for
every process alike, so a wall-clock time there measures the host more
than the program. Each process therefore also times a fixed pure-Python
loop (``child.reference_s``) after its set-up and between trials, and
every time is scaled by ``REF_S`` over the loop's time around it: a
reference second is a second on a host where that loop takes ``REF_S``.
A change to the program moves reference seconds as it moves wall
seconds; a change in host speed cancels. Wall-clock figures stay in the
run record. Throughput is all trials over their summed reference time;
``trial_s_p90`` is the 90th percentile of the trials' reference times;
set-up time and peak RSS are medians over the processes. Per-kind median
trial times go into the run record only: the kinds differ several-fold
in cost, so a median over all trials falls into the gap between two
kinds. ``--trace 1`` runs one traced process instead and reports the
per-layer metrics, in wall seconds.

Every trial's output is checked (see ``workloads.py``). The run is also
checked for determinism. Within a run, trial records -- outputs and work
counters -- must agree exactly: the warm-up of every process, and in a
traced run the plain, traced and counting passes. Across runs, only
outputs are compared: each trial's output digest must match the last run
of the same seed in this checkout (kept in ``.perfbench_state/``). A
change that does the same job with less work is correct; the number of
trials whose work counters differ from that last run goes into the run
record as ``work_changed_vs_previous``, so a time change reads as more
work or slower work. The second-to-last stdout line is the full run
record (environment, seed, work counters, output digest); the last line
is the result object. A run that cannot start its processes
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

from tracer import EXPECTED_EFFECT, NOT_MEASURED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench_state")
WORKLOADS = ("download-mitm", "wep-crack", "rogue-hunt")

#: Timed processes per run, each giving one set-up sample.
SEGMENTS = 5
#: The reference loop's time on the host reference seconds stand for
#: (about its median on the 2-vCPU VM the benchmark was tuned on).
REF_S = 0.004
#: Every process must be done by then, so one run ends within 180 s.
RUN_DEADLINE_S = 170.0

#: (wrapped function, obs or trial counter) pairs that must be equal: the
#: wrapped call count proves the wrapper took effect where callers look
#: the name up; the program's own counter proves it counts the same work.
WRAPPER_CHECKS = (
    ("repro.radio.medium:Medium.transmit", "obs:radio.transmissions"),
    ("repro.radio.medium:Medium.transmit", "trial:radio_transmissions"),
    ("repro.netstack.netfilter:Netfilter.process", "obs:netfilter.traversals"),
    ("repro.defense.vpn:SshRecordLayer.seal", "obs:vpn.records_sealed"),
    ("repro.wids.engine:WidsEngine.process", "obs:wids.frames"),
    ("repro.wids.engine:WidsEngine.process", "trial:wids_frames"),
    ("repro.crypto.fms:FmsAttack.votes_for_byte", "trial:fms_vote_tables"),
    # bound in the benchmark's own module by ``from ... import``
    ("repro.crypto.rc4:rc4_keystream", "trial:fms_samples"),
)


#: A program defect the benchmark counts in every rogue-hunt record
#: (``evasive_seqctl_alerts``) instead of failing the run on it.
EVASIVE_SEQCTL_NOTE = (
    "known defect: the evasive rogue's MirroredSequenceCounter stamps a "
    "frame before it overhears the AP's latest number, so the merged "
    "stream steps back by 1 (gap 4095); three such steps raise a seqctl "
    "alert in about 1 of 100 evasive worlds, against the mirroring "
    "promise in repro.dot11.seqctl")


def _evasive_seqctl_alerts(kinds: List[str], outputs: List[dict]) -> int:
    return sum(1 for kind, out in zip(kinds, outputs) if kind == "evasive"
               and "seqctl" in out.get("alerted_detectors", ()))


class RunError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.setdefault("PYTHONHASHSEED", "0")
    env["PYTHONPATH"] = SRC
    # Keep ``git rev-parse`` in the environment capture inside the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    return env


def _spawn(mode: str, args, seconds: float, segment: int,
           deadline: float) -> Tuple[float, dict, dict]:
    """Run one child; return (seconds to ready, ready line, result line)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--segment", str(segment)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("no time left to start a process")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        ready_line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    if code != 0 or not ready_line or not lines:
        raise RunError(f"{mode} process exited with status {code}")
    return ready_s, json.loads(ready_line), json.loads(lines[-1])


def _compare_with_previous(workload: str, seed: int,
                           segments: List[dict]) -> Tuple[List[str], dict]:
    """Check each segment's per-trial output digests against the last run
    of this seed, then save this run's digests over the old ones.

    Returns failure reasons and, as information, how many trials were
    compared and how many of those did different work (same output,
    different counters)."""
    path = os.path.join(STATE_DIR, f"{workload}-seed{seed}.json")
    saved: Dict[str, dict] = {}
    if os.path.exists(path):
        with open(path) as fh:
            saved = json.load(fh)["segments"]
    problems = []
    compared = work_changed = 0
    for k, seg in enumerate(segments):
        previous = saved.get(str(k), {"outputs": [], "work": []})
        pairs = zip(previous["outputs"], seg["output_digests"],
                    previous["work"], seg["digests"])
        for i, (old_out, new_out, old_work, new_work) in enumerate(pairs):
            if old_out != new_out:
                problems.append(f"segment {k} trial {i} output differs from "
                                f"the previous run of seed {seed}")
                break
            compared += 1
            work_changed += old_work != new_work
        n = len(seg["digests"])
        saved[str(k)] = {
            "outputs": seg["output_digests"] + previous["outputs"][n:],
            "work": seg["digests"] + previous["work"][n:],
        }
    os.makedirs(STATE_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "segments": saved}, fh)
    return problems, {"trials_compared": compared,
                      "work_changed": work_changed}


def _run_digest(digests: List[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _median_by_kind(kinds: List[str], durations: List[float]) -> dict:
    by_kind: Dict[str, List[float]] = {}
    for kind, d in zip(kinds, durations):
        by_kind.setdefault(kind, []).append(d)
    return {k: statistics.median(v) for k, v in sorted(by_kind.items())}


def _reference_times(seg: dict) -> List[float]:
    """The segment's trial times in reference seconds: each trial is
    scaled by the mean of the reference timings just before and after."""
    refs = seg["reference_s"]
    return [d * REF_S / ((before + after) / 2)
            for d, before, after in zip(seg["durations_s"], refs, refs[1:])]


def timed_run(args, deadline: float) -> Tuple[dict, dict, List[str], int, int]:
    setups, segments = [], []
    problems: List[str] = []
    warm = set()
    for k in range(SEGMENTS):
        ready_s, ready, result = _spawn("timed", args, args.seconds / SEGMENTS,
                                        k, deadline)
        setups.append(ready_s)
        segments.append(result)
        warm.add(ready["ready"])
        if ready["failure"]:
            problems.append(f"warm-up: {ready['failure']}")
        problems += [f"trial {f['index']} ({f['kind']}): {f['reason']}"
                     for f in result["failures"]]
    if len(warm) != 1 or segments[0]["digests"][0] not in warm:
        problems.append("trial 0 differs between processes or from the "
                        "warm-up")
    cross_problems, work_changed = _compare_with_previous(
        args.workload, args.seed, segments)
    problems += cross_problems

    trials = sum(seg["trials"] for seg in segments)
    failed = sum(len(seg["failures"]) for seg in segments)
    kinds = [k for seg in segments for k in seg["kinds"]]
    durations = [d for seg in segments for d in seg["durations_s"]]
    ref_durations = [d for seg in segments for d in _reference_times(seg)]
    ref_setups = [ready_s * REF_S / seg["setup_reference_s"]
                  for ready_s, seg in zip(setups, segments)]
    counters: Dict[str, int] = {}
    for seg in segments:
        for name, value in seg["counters"].items():
            counters[name] = counters.get(name, 0) + value
    metrics = {
        "trials_per_s": _metric(trials / sum(ref_durations), "1/s"),
        "trial_s_p90": _metric(
            statistics.quantiles(ref_durations, n=10)[-1], "s"),
        "setup_s": _metric(statistics.median(ref_setups), "s"),
        "peak_rss_mb": _metric(statistics.median(
            seg["peak_rss_mb"] for seg in segments), "MB"),
    }
    record = {
        "trials": trials,
        "failed": failed,
        "trial_fail_ratio": failed / trials,
        "wall_trials_per_s": trials / sum(durations),
        "wall_trial_s_p90": statistics.quantiles(durations, n=10)[-1],
        "wall_setup_s": statistics.median(setups),
        "segment_trials_per_s": [
            seg["trials"] / sum(_reference_times(seg)) for seg in segments],
        "trial_s_p50_by_kind": _median_by_kind(kinds, ref_durations),
        "setup_samples_s": ref_setups,
        "reference_s_median": statistics.median(
            r for seg in segments for r in seg["reference_s"]),
        "work_counters": counters,
        "output_digest": _run_digest(
            [d for seg in segments for d in seg["output_digests"]]),
        "work_changed_vs_previous": work_changed,
        "environment": segments[0]["environment"],
        "keys_recovered": sum(seg["keys_recovered"] for seg in segments),
        "evasive_seqctl_alerts": sum(
            _evasive_seqctl_alerts(seg["kinds"], seg["outputs"])
            for seg in segments),
    }
    return metrics, record, problems, trials, failed


def _layer_metrics(res: dict) -> Dict[str, dict]:
    """Per-layer self time and counts of one traced run."""
    self_s, calls, obs = res["self_s"], res["calls"], res["obs"]
    counters = res["traced"]["counters"]
    outputs = res["traced"]["outputs"]
    wall = res["traced"]["elapsed_s"]
    n_calls = lambda key: calls.get(key, 0)  # noqa: E731
    rogue_alerts = sum(o.get("alert_count", 0) for o in outputs
                       if o.get("rogue_present"))
    all_alerts = sum(o.get("alert_count", 0) for o in outputs)
    verifies = counters.get("fms_verifier_calls", 0)
    recovered = sum(1 for o in outputs if o.get("recovered"))
    m = {
        "sim.self_s": (self_s["sim"], "s"),
        "sim.events": (counters.get("sim_events", 0), "count"),
        "radio.self_s": (self_s["radio"], "s"),
        "radio.transmissions": (obs.get("radio.transmissions", 0), "count"),
        "radio.deliveries": (obs.get("radio.deliveries", 0), "count"),
        "radio.drops": (obs.get("radio.drops.loss", 0)
                        + obs.get("radio.drops.collision", 0), "count"),
        "radio.deferrals": (obs.get("radio.deferrals", 0), "count"),
        "hosts.self_s": (self_s["hosts"], "s"),
        "hosts.associations": (obs.get("dot11.sta_associations", 0), "count"),
        "dot11.self_s": (self_s["dot11"], "s"),
        "dot11.beacons_parsed": (
            n_calls("repro.dot11.frames:Dot11Frame.parse_beacon"), "count"),
        "wire.self_s": (self_s["wire"], "s"),
        "wire.checksums": (
            n_calls("repro.wire.checksum:internet_checksum"), "count"),
        "wids.self_s": (self_s["wids"], "s"),
        "wids.eval_s": (
            res["inclusive_s"].get("repro.wids.evaluation:evaluate", 0.0), "s"),
        "wids.frames": (obs.get("wids.frames", 0), "count"),
        "wids.alerts": (obs.get("wids.alerts", 0), "count"),
        "wids.alert_precision": (
            rogue_alerts / all_alerts if all_alerts else 0.0, "ratio"),
        "rsn.self_s": (self_s["rsn"], "s"),
        "rsn.negotiations": (n_calls("repro.rsn.ie:negotiate"), "count"),
        "netstack.self_s": (self_s["netstack"], "s"),
        "netstack.tcp_segments": (obs.get("tcp.segments_sent", 0), "count"),
        "netstack.tcp_retransmits": (obs.get("tcp.retransmits", 0), "count"),
        "netstack.netfilter_traversals": (
            obs.get("netfilter.traversals", 0), "count"),
        "netstack.arp_misses": (obs.get("arp.lookup_misses", 0), "count"),
        "attacks.self_s": (self_s["attacks"], "s"),
        "attacks.netsed_rewrites": (
            obs.get("attack.netsed.rewrites", 0), "count"),
        "httpsim.self_s": (self_s["httpsim"], "s"),
        "httpsim.requests": (
            n_calls("repro.httpsim.client:HttpClient.get"), "count"),
        "defense.self_s": (self_s["defense"], "s"),
        "defense.vpn_records": (obs.get("vpn.records_sealed", 0), "count"),
        "crypto.fms_self_s": (self_s["crypto.fms"], "s"),
        "crypto.fms_vote_tables": (counters.get("fms_vote_tables", 0), "count"),
        "crypto.fms_verifier_calls": (verifies, "count"),
        "crypto.fms_keys_per_verify": (
            recovered / verifies if verifies else 0.0, "ratio"),
        "crypto.cipher_self_s": (self_s["crypto.cipher"], "s"),
        "crypto.ksa_calls": (n_calls("repro.crypto.rc4:ksa"), "count"),
        "crypto.rc4_bytes": (res["meters"].get("rc4_bytes", 0), "bytes"),
        "crypto.hash_self_s": (self_s["crypto.hash"], "s"),
        "crypto.hash_bytes": (res["meters"].get("hash_bytes", 0), "bytes"),
        "crypto.dh_self_s": (self_s["crypto.dh"], "s"),
        "untraced.self_s": (wall - sum(self_s.values()), "s"),
        "traced.wall_s": (wall, "s"),
        "trace_overhead_x": (wall / sum(res["plain"]["durations_s"]), "x"),
    }
    return {name: _metric(v, unit) for name, (v, unit) in m.items()}


def trace_run(args, deadline: float) -> Tuple[dict, dict, List[str], int, int]:
    _, ready, res = _spawn("trace", args, args.seconds, 0, deadline)
    passes = ("plain", "traced", "counted")
    problems = [f"warm-up: {ready['failure']}"] if ready["failure"] else []
    failed = 0
    for name in passes:
        failed += len(res[name]["failures"])
        problems += [f"{name} trial {f['index']} ({f['kind']}): {f['reason']}"
                     for f in res[name]["failures"]]
    if not (res["plain"]["digests"] == res["traced"]["digests"]
            == res["counted"]["digests"]):
        problems.append("plain, traced and counting passes disagree")
    if res["plain"]["digests"][0] != ready["ready"]:
        problems.append("warm-up trial 0 differs from the plain trial 0")
    cross_problems, work_changed = _compare_with_previous(
        args.workload, args.seed, [res["plain"]])
    problems += cross_problems
    for wrapped, source in WRAPPER_CHECKS:
        kind, name = source.split(":", 1)
        expected = (res["obs"] if kind == "obs"
                    else res["traced"]["counters"]).get(name, 0)
        got = res["calls"].get(wrapped, 0)
        if got != expected:
            problems.append(f"{wrapped} wrapped {got} calls, {source} = "
                            f"{expected}")
    metrics = _layer_metrics(res)
    if metrics["untraced.self_s"]["value"] < 0:
        problems.append("layer self times exceed the traced wall time")
    record = {
        "expected_effect": EXPECTED_EFFECT,
        "not_measured": list(NOT_MEASURED),
        "trials_per_pass": res["plain"]["trials"],
        "work_counters": res["traced"]["counters"],
        "output_digest": _run_digest(res["plain"]["output_digests"]),
        "work_changed_vs_previous": work_changed,
        "obs_counters": res["obs"],
        "environment": res["environment"],
        "keys_recovered": res["plain"]["keys_recovered"],
        "evasive_seqctl_alerts": _evasive_seqctl_alerts(
            res["plain"]["kinds"], res["plain"]["outputs"]),
    }
    return (metrics, record, problems,
            len(passes) * res["plain"]["trials"], failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro package under {SRC}: run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    run = trace_run if args.trace else timed_run
    try:
        metrics, record, problems, attempted, failed = run(args, deadline)
    except (RunError, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc!r}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if record["evasive_seqctl_alerts"]:
        print(f"{record['evasive_seqctl_alerts']} evasive world(s) raised a "
              f"seqctl alert; {EVASIVE_SEQCTL_NOTE}", file=sys.stderr)
    record.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "problems": problems})
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
