"""One measured benchmark process, started by ``run.py``.

Usage: ``python3 perfbench/child.py --mode {timed,trace} --workload NAME
--seed N --seconds S [--segment K]``, with the checkout's ``src`` on
``PYTHONPATH``.

Both modes first import ``repro`` and run trial 0 as a warm-up, then
print one ``{"ready": ...}`` line; ``run.py`` times interpreter start to
that line as one set-up sample, and the child then times the reference
loop (:func:`reference_s`) to give that sample's host speed. ``timed``
then runs whole rotations of trials, from index ``K * SEGMENT_STRIDE``
on, back to back until ``S`` seconds have passed, timing the reference
loop before the first trial and after every trial. ``trace`` runs the
same trials three times -- plain, traced, counting -- and reports the
per-layer breakdown. The last stdout line is the result.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from typing import List

#: Share of ``--seconds`` the plain pass of a traced run measures; the
#: traced and counting passes replay the same trials, so the whole
#: traced run takes about (1 + overhead + 1.2) times this.
TRACE_PLAIN_SHARE = 0.25
#: First trial index of segment K is ``K * SEGMENT_STRIDE``, so the
#: segments of one run measure different trials.
SEGMENT_STRIDE = 1_000_000
#: The checkout's ``src``; ``repro`` must be imported from there.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(
    __file__))), "src")


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _reference_work() -> int:
    """Fixed pure-Python work in the program's idiom: small objects,
    method calls, a heap queue, dict counts and byte arithmetic."""
    heap, counts, buf = [], {}, bytearray(256)
    total = 0
    for i in range(3000):
        item = _Item(i * 7919 % 1009, i)
        heapq.heappush(heap, (item.key, item.value))
        counts[i & 127] = counts.get(i & 127, 0) + 1
        buf[i & 255] ^= buf[(i * 31) & 255] ^ (i & 255)
        total += i * i % 7
    while heap:
        total += heapq.heappop(heap)[1]
    return total + len(counts) + sum(buf)


def reference_s() -> float:
    """Seconds the reference work takes now: the host's current speed."""
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0


def _run_trial(workload, seed: int, index: int):
    """Run one trial; a raise becomes a failed record, never a crash."""
    from workloads import TrialRecord

    try:
        return workload.run_trial(seed, index)
    except Exception:  # a trial that raises is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        kind = workload.kinds[index % len(workload.kinds)]
        record = TrialRecord(index, kind, -1, {}, {})
        record.failure = "raised " + traceback.format_exc(limit=1).strip()
        return record


def _summarise(records, durations: List[float], elapsed: float) -> dict:
    counters: Counter = Counter()
    for rec in records:
        counters.update(rec.counters)
    return {
        "trials": len(records),
        "elapsed_s": elapsed,
        "durations_s": durations,
        "failures": [{"index": r.index, "kind": r.kind, "reason": r.failure}
                     for r in records if r.failure],
        "digests": [r.digest for r in records],
        "output_digests": [r.output_digest for r in records],
        "kinds": [r.kind for r in records],
        "counters": dict(sorted(counters.items())),
        "outputs": [r.output for r in records],
        "keys_recovered": sum(1 for r in records
                              if r.output.get("recovered")),
    }


def timed(workload, seed: int, seconds: float, first: int = 0) -> dict:
    """Whole rotations back to back until ``seconds`` have passed.

    The reference loop is timed before the first trial and after each
    one, so trial ``i`` sits between ``reference_s[i]`` and
    ``reference_s[i + 1]``."""
    rotation = len(workload.kinds)
    perf = time.perf_counter
    records, durations = [], []
    gc.collect()
    references = [reference_s()]
    begin = perf()
    deadline = begin + seconds
    index = first
    while True:
        t0 = perf()
        records.append(_run_trial(workload, seed, index))
        durations.append(perf() - t0)
        references.append(reference_s())
        index += 1
        if (index - first) % rotation == 0 and perf() >= deadline:
            break
    summary = _summarise(records, durations, perf() - begin)
    summary["reference_s"] = references
    return summary


def _pass(workload, seed: int, count: int):
    perf = time.perf_counter
    gc.collect()
    begin = perf()
    records = [_run_trial(workload, seed, i) for i in range(count)]
    return records, perf() - begin


def traced(workload, seed: int, seconds: float) -> dict:
    """Plain, traced and counting passes over the same trials."""
    from repro.obs import collecting
    from tracer import Tracer

    plain = timed(workload, seed, seconds * TRACE_PLAIN_SHARE)
    count = plain["trials"]

    tracer = Tracer()
    tracer.install(extra_modules=("workloads",))
    try:
        traced_records, traced_wall = _pass(workload, seed, count)
    finally:
        tracer.uninstall()

    with collecting(metrics=True) as col:
        counted_records, _ = _pass(workload, seed, count)
    registry = col.registry

    traced_summary = _summarise(traced_records, [], traced_wall)
    counted_summary = _summarise(counted_records, [], 0.0)
    return {
        "plain": plain,
        "traced": traced_summary,
        "counted": counted_summary,
        "self_s": tracer.layer_self_s(),
        "calls": dict(tracer.calls),
        "inclusive_s": dict(tracer.inclusive_s),
        "meters": dict(tracer.meters),
        "obs": {name: registry.value(name) for name, metric in registry
                if type(metric).__name__ == "CounterMetric"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("timed", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--segment", type=int, default=0)
    args = parser.parse_args(argv)

    import repro
    if not os.path.realpath(repro.__file__).startswith(SRC + os.sep):
        print(f"repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    warm = _run_trial(workload, args.seed, 0)
    print(json.dumps({"ready": warm.digest, "failure": warm.failure}),
          flush=True)
    setup_reference_s = statistics.median(reference_s() for _ in range(3))
    if args.mode == "timed":
        result = timed(workload, args.seed, args.seconds,
                       first=args.segment * SEGMENT_STRIDE)
    else:
        result = traced(workload, args.seed, args.seconds)
    result["setup_reference_s"] = setup_reference_s
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    from repro.bench.runner import capture_environment
    result["environment"] = capture_environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
