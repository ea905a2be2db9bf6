"""Parent-process side of the fleet engine: sharding, watchdogs, reduction.

``run_campaign`` shards an ``n``-seed sweep across ``workers`` processes
while preserving the repository's determinism contract:

* each trial's result depends only on its seed (``seed_base + index``) —
  never on which worker ran it or in what order trials completed;
* results are reduced in seed order (:mod:`repro.fleet.reduce`), so the
  aggregate is bit-for-bit identical to a serial run.

Scheduling is dynamic (one shared task queue, workers pull as they
finish) which keeps all cores busy regardless of per-trial variance;
determinism is unaffected because reduction ignores completion order.

Fault containment: a trial that raises is reported by its worker; a
trial that overruns its ``timeout`` is interrupted by the worker's
SIGALRM; a trial hung in signal-blocking code is killed by the parent
watchdog; a worker process that dies outright (segfault, ``os._exit``)
is detected via its exit code and replaced.  In every case the affected
trial is retried (``retries`` times, default once) and, if it keeps
failing, recorded as a :class:`~repro.fleet.errors.TrialFailure` — the
rest of the sweep always completes.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.campaign import TrialStats
from repro.fleet.errors import (FAIL_CRASH, FAIL_ERROR, FAIL_TIMEOUT,
                                FleetError, TrialFailure)
from repro.fleet.reduce import campaign_stats, merge_snapshots
from repro.fleet.worker import (ObservedTrial, _TrialTimeout, run_one,
                                worker_main)
from repro.obs.metrics import MetricsRegistry

__all__ = ["CampaignResult", "run_campaign"]

#: How long past the worker-side alarm the parent waits before declaring a
#: worker hung and killing it (the alarm normally fires first; the watchdog
#: only triggers for trials stuck in signal-blocking native code).
_WATCHDOG_GRACE_S = 1.0
#: Poll interval for the parent's event loop.
_POLL_S = 0.05


@dataclass
class CampaignResult:
    """Everything a sweep produced, reducible and serializable.

    ``per_index`` maps trial index → value for every trial that
    succeeded; ``failures`` lists every trial that failed all attempts;
    ``metrics`` maps seed → per-trial metrics snapshot when the campaign
    ran with ``collect_metrics=True``; ``lineages`` maps seed → that
    trial's truncated flight-recorder sample when the campaign ran with
    ``flight_recorder=N``.
    """

    n: int
    seed_base: int
    workers: int
    elapsed_s: float
    per_index: Dict[int, Any] = field(default_factory=dict)
    failures: List[TrialFailure] = field(default_factory=list)
    metrics: Dict[int, dict] = field(default_factory=dict)
    lineages: Dict[int, List[dict]] = field(default_factory=dict)

    @property
    def per_seed(self) -> Dict[int, Any]:
        """Successful results keyed by seed, in seed order."""
        return {self.seed_base + i: self.per_index[i]
                for i in sorted(self.per_index)}

    @property
    def ok(self) -> int:
        """Number of trials that produced a result."""
        return len(self.per_index)

    @property
    def stats(self) -> Optional[TrialStats]:
        """Seed-order :class:`TrialStats` aggregate (None for non-numeric sweeps)."""
        return campaign_stats(self.per_index, self.n)

    @property
    def throughput(self) -> float:
        """Resolved trials per wall-clock second."""
        total = self.ok + len(self.failures)
        return total / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def merged_metrics(self) -> Optional[MetricsRegistry]:
        """All per-trial registries folded together, in seed order.

        Seed-order reduction makes the merged registry independent of
        which worker ran which trial and of completion order — the same
        contract :func:`~repro.fleet.reduce.campaign_stats` upholds for
        numeric results.  ``None`` when the campaign collected no
        metrics.
        """
        return merge_snapshots(self.metrics)

    @property
    def merged_lineages(self) -> List[dict]:
        """Every shipped lineage sample concatenated in seed order.

        Like :attr:`merged_metrics`, the seed-order fold makes the
        merged list independent of worker assignment and completion
        order.  Each dict is annotated with its ``"seed"`` — trace_ids
        restart at 1 in every trial, so the seed is what disambiguates
        lineages from different trials (rebuild one trial's view with
        ``FlightRecorder.from_dicts(result.lineages[seed])``).
        """
        merged: List[dict] = []
        for seed in sorted(self.lineages):
            merged.extend({**ln, "seed": seed} for ln in self.lineages[seed])
        return merged

    def to_json_dict(self) -> dict:
        """JSON-shaped summary used by ``python -m repro sweep --json``."""
        merged = self.merged_metrics
        return {
            "trials": self.n,
            "seed_base": self.seed_base,
            "workers": self.workers,
            "elapsed_s": self.elapsed_s,
            "ok": self.ok,
            "results": [{"seed": seed, "value": value}
                        for seed, value in self.per_seed.items()],
            "failures": [f.to_dict() for f in self.failures],
            "metrics": merged.snapshot() if merged is not None else None,
            "lineages": self.merged_lineages or None,
        }


def run_campaign(n: int, trial: Callable[[int], Any], *,
                 seed_base: int = 1000, workers: int = 1,
                 timeout: Optional[float] = None, retries: int = 1,
                 collect_metrics: bool = False,
                 flight_recorder: int = 0,
                 on_snapshot: Optional[Callable[[int, dict], None]] = None,
                 ) -> CampaignResult:
    """Run ``trial(seed)`` for ``n`` seeds, sharded over ``workers`` processes.

    Parameters
    ----------
    trial:
        Callable of one seed.  May return a number (aggregated into
        :attr:`CampaignResult.stats`) or any picklable payload (kept as
        raw per-seed results).  Under the ``fork`` start
        method (Linux) closures work; under ``spawn`` the callable must
        be picklable (module-level function or callable instance).
    workers:
        ``1`` runs everything in-process (no multiprocessing machinery);
        ``>1`` spawns that many worker processes.
    timeout:
        Per-trial wall-clock budget in seconds.  Overruns are recorded
        as failures, not sweep aborts.
    retries:
        Extra attempts granted to a failed trial before it is recorded
        as a :class:`TrialFailure`.
    collect_metrics:
        Run every trial inside a fresh observability context and ship
        each trial's :class:`MetricsRegistry` snapshot to the parent
        (see :attr:`CampaignResult.merged_metrics`).  Purely
        observational — trial values are unchanged.
    flight_recorder:
        ``N > 0`` runs every trial under a flight recorder whose ring
        buffer keeps the newest ``N`` frame lineages; each trial's
        sample ships to the parent (see
        :attr:`CampaignResult.lineages` / ``merged_lineages``).  Like
        metrics, recording never perturbs trial values.
    on_snapshot:
        Parent-side callback ``(index, snapshot)``, called once for every
        trial that succeeds, as its result is recorded, with the
        trial's metrics snapshot (the same dict that lands in
        :attr:`CampaignResult.metrics`).  Setting it turns on
        ``collect_metrics``.  Calls follow completion order (index order
        when serial); a failed attempt calls nothing, and a retried
        trial calls once.  A callback that raises is switched off for
        the rest of the sweep instead of aborting it.
    """
    if n < 0:
        raise FleetError(f"trial count must be >= 0, got {n}")
    if retries < 0:
        raise FleetError(f"retries must be >= 0, got {retries}")
    observed = ObservedTrial(
        trial, metrics=collect_metrics or on_snapshot is not None,
        lineage_sample=flight_recorder)
    results = _Results(on_snapshot)
    started = time.perf_counter()
    if workers <= 1 or n <= 1:
        failures = _run_serial(n, observed, seed_base, timeout, retries,
                               results)
        workers = 1
    else:
        failures = _Fleet(_fleet_context(), n, observed, seed_base,
                          min(workers, n), timeout, retries, results).run()

    def by_seed(per_index: Dict[int, Any]) -> Dict[int, Any]:
        return {seed_base + i: v for i, v in sorted(per_index.items())}

    return CampaignResult(
        n=n, seed_base=seed_base, workers=workers,
        elapsed_s=time.perf_counter() - started,
        per_index=results.per_index,
        failures=sorted(failures, key=lambda f: f.index),
        metrics=by_seed(results.metrics),
        lineages=by_seed(results.lineages))


class _Results:
    """Every successful trial's value and shipped extras, by index.

    The serial loop and the parallel fleet both record each trial here
    exactly once, which is where ``on_snapshot`` fires.  A listener that
    raises is switched off instead of killing the sweep: a live view
    must never be able to abort a campaign.
    """

    def __init__(self, on_snapshot: Optional[Callable[[int, dict], None]]) -> None:
        self.on_snapshot = on_snapshot
        self.per_index: Dict[int, Any] = {}
        self.metrics: Dict[int, dict] = {}
        self.lineages: Dict[int, List[dict]] = {}

    def add(self, index: int, value: Any, extra: Optional[dict]) -> None:
        self.per_index[index] = value
        extra = extra or {}
        if "lineage" in extra:
            self.lineages[index] = extra["lineage"]
        if "metrics" in extra:
            self.metrics[index] = extra["metrics"]
            if self.on_snapshot is not None:
                try:
                    self.on_snapshot(index, extra["metrics"])
                except Exception:
                    # Broad on purpose: contains any crash in a user's listener.
                    self.on_snapshot = None


# ----------------------------------------------------------------------
# serial fast path (workers=1): same semantics, no multiprocessing
# ----------------------------------------------------------------------

def _run_serial(n, trial, seed_base, timeout, retries,
                results: _Results) -> List[TrialFailure]:
    failures: List[TrialFailure] = []
    for index in range(n):
        for attempt in range(1, retries + 2):
            try:
                value, extra = run_one(trial, seed_base + index, timeout)
            except _TrialTimeout:
                kind, message = FAIL_TIMEOUT, f"trial exceeded its {timeout}s timeout"
            except Exception as exc:
                # Broad on purpose: contains any crash in a user's trial.
                kind, message = FAIL_ERROR, f"{type(exc).__name__}: {exc}"
            else:
                results.add(index, value, extra)
                break
            if attempt == retries + 1:
                failures.append(TrialFailure(
                    seed=seed_base + index, index=index, kind=kind,
                    message=message, attempts=attempt))
    return failures


# ----------------------------------------------------------------------
# parallel path
# ----------------------------------------------------------------------

def _fleet_context():
    """``fork`` when the platform offers it (fast, closure-friendly);
    ``spawn`` otherwise (requires picklable trials)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class _Fleet:
    """Book-keeping for one parallel sweep."""

    def __init__(self, ctx, n, trial, seed_base, workers, timeout,
                 retries, results):
        self.ctx = ctx
        self.n = n
        self.trial = trial
        self.seed_base = seed_base
        self.timeout = timeout
        self.retries = retries
        self.results = results
        # Tasks ride an mp.Queue (buffered: the parent can enqueue the whole
        # sweep up-front without blocking).  Results ride a SimpleQueue:
        # its put() writes to the pipe synchronously in the worker, so a
        # worker that dies mid-trial has always flushed its "start"
        # message first and the parent knows exactly which index it held.
        self.task_queue = ctx.Queue()
        self.result_queue = ctx.SimpleQueue()
        self.procs: Dict[int, Any] = {}          # live worker id -> Process
        self.in_flight: Dict[int, tuple] = {}    # worker id -> (index, deadline)
        self.failed_attempts: Dict[int, int] = {}
        self.failures: List[TrialFailure] = []
        self.resolved: set[int] = set()
        self._next_worker_id = 0
        self._last_progress = time.monotonic()
        self._stall_s = max(5.0, 2.0 * (timeout or 0.0))
        for index in range(n):
            self.task_queue.put(index)
        for _ in range(workers):
            self._spawn()

    # -- workers -------------------------------------------------------
    def _spawn(self) -> None:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        proc = self.ctx.Process(
            target=worker_main,
            args=(worker_id, self.trial, self.seed_base, self.timeout,
                  self.task_queue, self.result_queue),
            daemon=True)
        proc.start()
        self.procs[worker_id] = proc

    def _retire(self, worker_id: int, *, kill: bool = False) -> None:
        proc = self.procs.pop(worker_id, None)
        self.in_flight.pop(worker_id, None)
        if proc is None:
            return
        if kill and proc.is_alive():
            proc.terminate()
        proc.join(timeout=1.0)

    # -- per-trial resolution ------------------------------------------
    def _record_success(self, index, value, extra) -> None:
        if index in self.resolved:
            return  # stale duplicate (e.g. retry raced a watchdog kill)
        self.resolved.add(index)
        self.results.add(index, value, extra)

    def _record_failed_attempt(self, index, kind, message) -> None:
        if index in self.resolved:
            return
        attempts = self.failed_attempts.get(index, 0) + 1
        self.failed_attempts[index] = attempts
        if attempts <= self.retries:
            self.task_queue.put(index)  # one more chance
        else:
            self.resolved.add(index)
            self.failures.append(TrialFailure(
                seed=self.seed_base + index, index=index, kind=kind,
                message=message, attempts=attempts))

    # -- failure detection ---------------------------------------------
    def _deadline(self) -> Optional[float]:
        if self.timeout is None:
            return None
        return time.monotonic() + self.timeout + _WATCHDOG_GRACE_S

    def _police_workers(self) -> None:
        """Reap dead workers, kill hung ones, keep the fleet staffed."""
        for worker_id in list(self.procs):
            proc = self.procs[worker_id]
            flight = self.in_flight.get(worker_id)
            if not proc.is_alive():
                # Drain any messages the worker managed to send first.
                if self._drain_one():
                    return  # re-enter after processing; state may have changed
                self._retire(worker_id)
                if flight is not None:
                    index = flight[0]
                    self._record_failed_attempt(
                        index, FAIL_CRASH,
                        f"worker exited with code {proc.exitcode} mid-trial")
                if len(self.resolved) < self.n:
                    self._spawn()
            elif (flight is not None and flight[1] is not None
                  and time.monotonic() > flight[1]):
                index = flight[0]
                self._retire(worker_id, kill=True)
                self._record_failed_attempt(
                    index, FAIL_TIMEOUT,
                    f"trial exceeded its {self.timeout}s timeout "
                    f"(hung worker killed by watchdog)")
                if len(self.resolved) < self.n:
                    self._spawn()
        self._recover_lost_tasks()

    def _recover_lost_tasks(self) -> None:
        """Last-resort accounting: re-enqueue indices nobody is working on.

        The only way a task can vanish is a worker dying in the few
        instructions between pulling an index off the task queue and
        announcing it on the (synchronous) result queue — e.g. an
        external SIGKILL at exactly the wrong moment.  If the fleet has
        been idle (no in-flight trials, no progress) long enough that
        any queued task would certainly have been picked up, re-enqueue
        everything unresolved; duplicate completions are deduped by
        :meth:`_record_success`.
        """
        if self.in_flight or len(self.resolved) >= self.n:
            return
        if time.monotonic() - self._last_progress < self._stall_s:
            return
        for index in range(self.n):
            if index not in self.resolved:
                self.task_queue.put(index)
        self._last_progress = time.monotonic()

    # -- event loop ----------------------------------------------------
    def _handle(self, message) -> None:
        kind, worker_id, index, a, b = message
        self._last_progress = time.monotonic()
        if kind == "start":
            if worker_id in self.procs:
                self.in_flight[worker_id] = (index, self._deadline())
        elif kind == "ok":
            self.in_flight.pop(worker_id, None)
            self._record_success(index, a, b)
        elif kind == "fail":
            self.in_flight.pop(worker_id, None)
            self._record_failed_attempt(index, a, b)
        # "bye" needs no action here.

    def _poll_result(self, timeout: float):
        """Wait up to ``timeout`` for a result message; None on silence."""
        reader = getattr(self.result_queue, "_reader", None)
        if reader is not None:
            if not reader.poll(timeout):
                return None
        else:  # pragma: no cover - SimpleQueue always has _reader today
            end = time.monotonic() + timeout
            while self.result_queue.empty():
                if time.monotonic() >= end:
                    return None
                time.sleep(0.005)
        try:
            return self.result_queue.get()
        except EOFError:  # pragma: no cover - all writers vanished
            return None

    def _drain_one(self) -> bool:
        message = self._poll_result(0.0)
        if message is None:
            return False
        self._handle(message)
        return True

    def run(self):
        try:
            while len(self.resolved) < self.n:
                message = self._poll_result(_POLL_S)
                if message is None:
                    self._police_workers()
                    continue
                self._handle(message)
            return self.failures
        finally:
            self._shutdown()

    def _shutdown(self) -> None:
        for _ in self.procs:
            self.task_queue.put(None)
        deadline = time.monotonic() + 5.0
        for worker_id in list(self.procs):
            proc = self.procs[worker_id]
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            self.procs.pop(worker_id, None)
        # Don't let the task queue's feeder thread block interpreter exit.
        self.task_queue.cancel_join_thread()
        self.task_queue.close()
        self.result_queue.close()
