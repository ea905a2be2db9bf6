"""Parent-process side of the fleet engine: assignment, watchdogs, reduction.

``run_campaign`` shards an ``n``-seed sweep across ``workers`` processes
while preserving the repository's determinism contract:

* each trial's result depends only on its seed (``seed_base + index``) —
  never on which worker ran it or in what order trials completed;
* results are reduced in seed order (:mod:`repro.fleet.reduce`), so the
  aggregate is bit-for-bit identical to a serial run.

Scheduling is dynamic: the parent sends each worker one index at a
time over that worker's own pipe and sends the next when its result
comes back, which keeps all cores busy regardless of per-trial
variance.  Determinism is unaffected because reduction ignores
completion order.

Every trial gets exactly one attempt.  A trial is a pure function of
its seed, so one that fails is a bug that a retry would only repeat.
A trial that raises is reported by its worker with its traceback; a
trial that overruns its ``timeout`` is interrupted by the worker's
SIGALRM; a trial hung in signal-blocking code is killed by the parent
watchdog; a worker that dies outright (segfault, ``os._exit``) reads as
EOF on its pipe.  Each is recorded as a
:class:`~repro.fleet.errors.TrialFailure`, a dead or killed worker is
replaced, and the rest of the sweep completes; ``python -m repro
sweep`` then exits 1.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional

from repro.core.campaign import TrialStats
from repro.fleet.errors import (FAIL_CRASH, FAIL_TIMEOUT, FleetError,
                                TrialFailure)
from repro.fleet.reduce import campaign_stats, merge_snapshots
from repro.fleet.worker import ObservedTrial, attempt, worker_main
from repro.obs.metrics import MetricsRegistry

__all__ = ["CampaignResult", "run_campaign"]

#: How long past the worker-side alarm the parent waits before declaring a
#: worker hung and killing it (the alarm normally fires first; the watchdog
#: only triggers for trials stuck in signal-blocking native code).
_WATCHDOG_GRACE_S = 1.0


@dataclass
class CampaignResult:
    """Everything a sweep produced, reducible and serializable.

    ``per_index`` maps trial index → value for every trial that
    succeeded; ``failures`` lists every trial that failed, in index order;
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
        return campaign_stats(self.per_index)

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
                 timeout: Optional[float] = None,
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
        when serial); a failed trial calls nothing.  A callback that
        raises aborts the sweep: the exception propagates once every
        worker has been stopped.
    """
    if n < 0:
        raise FleetError(f"trial count must be >= 0, got {n}")
    observed = ObservedTrial(
        trial, metrics=collect_metrics or on_snapshot is not None,
        lineage_sample=flight_recorder)
    results = _Results(seed_base, on_snapshot)
    started = time.perf_counter()
    if workers <= 1 or n <= 1:
        for index in range(n):
            results.record(index, *attempt(observed, seed_base + index,
                                           timeout))
        workers = 1
    else:
        _Fleet(_fleet_context(), n, observed, seed_base, min(workers, n),
               timeout, results).run()

    def by_seed(per_index: Dict[int, Any]) -> Dict[int, Any]:
        return {seed_base + i: v for i, v in sorted(per_index.items())}

    return CampaignResult(
        n=n, seed_base=seed_base, workers=workers,
        elapsed_s=time.perf_counter() - started,
        per_index=results.per_index,
        failures=sorted(results.failures, key=lambda f: f.index),
        metrics=by_seed(results.metrics),
        lineages=by_seed(results.lineages))


class _Results:
    """Every trial's outcome, by index: values, shipped extras, failures.

    The serial loop and the parallel fleet both record each trial here
    exactly once, which is where ``on_snapshot`` fires.  A listener that
    raises aborts the sweep: the listeners are the served sweep's store
    and stream, so a crash in one is a bug to see, not to hide.
    """

    def __init__(self, seed_base: int,
                 on_snapshot: Optional[Callable[[int, dict], None]]) -> None:
        self.seed_base = seed_base
        self.on_snapshot = on_snapshot
        self.per_index: Dict[int, Any] = {}
        self.metrics: Dict[int, dict] = {}
        self.lineages: Dict[int, List[dict]] = {}
        self.failures: List[TrialFailure] = []

    def record(self, index: int, kind: str, payload: Any) -> None:
        """Record one :func:`~repro.fleet.worker.attempt` outcome."""
        if kind != "ok":
            self.failures.append(TrialFailure(
                seed=self.seed_base + index, index=index, kind=kind,
                message=payload))
            return
        value, extra = payload
        self.per_index[index] = value
        extra = extra or {}
        if "lineage" in extra:
            self.lineages[index] = extra["lineage"]
        if "metrics" in extra:
            self.metrics[index] = extra["metrics"]
            if self.on_snapshot is not None:
                self.on_snapshot(index, extra["metrics"])


# ----------------------------------------------------------------------
# parallel path
# ----------------------------------------------------------------------

def _fleet_context():
    """``fork`` when the platform offers it (fast, closure-friendly);
    ``spawn`` otherwise (requires picklable trials)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class _Fleet:
    """One parallel sweep: the parent hands out indices one at a time.

    Each worker has its own pipe.  ``busy`` maps a worker's pipe to
    ``(process, index, deadline)`` for the index it was last sent, so a
    result, an EOF (the worker died) or a passed deadline (the worker
    hung) always resolves exactly that index, once.
    """

    def __init__(self, ctx, n, trial, seed_base, workers, timeout, results):
        self.ctx = ctx
        self.trial = trial
        self.seed_base = seed_base
        self.workers = workers
        self.timeout = timeout
        self.results = results
        self.pending = iter(range(n))
        self.busy: Dict[Any, tuple] = {}
        self.procs: List[Any] = []

    def _spawn(self) -> None:
        """Start a worker and send it the next index, if any is left."""
        index = next(self.pending, None)
        if index is None:
            return
        conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=worker_main,
            args=(child_conn, self.trial, self.seed_base, self.timeout),
            daemon=True)
        proc.start()
        self.procs.append(proc)
        child_conn.close()  # else the worker's death never reads as EOF
        self._send(conn, proc, index)

    def _send(self, conn, proc, index: Optional[int]) -> None:
        """Hand ``conn``'s worker ``index``, or stop it with ``None``."""
        if index is None:
            del self.busy[conn]
        else:
            self.busy[conn] = (proc, index, None if self.timeout is None else
                               time.monotonic() + self.timeout
                               + _WATCHDOG_GRACE_S)
        try:
            conn.send(index)
        except OSError:
            pass  # the worker is dead: its pipe reads EOF next
        if index is None:
            conn.close()

    def _resolve(self, conn, kind: str, payload: Any) -> None:
        """Record ``conn``'s result and send that worker its next index."""
        proc, index, _ = self.busy[conn]
        self.results.record(index, kind, payload)
        self._send(conn, proc, next(self.pending, None))

    def _replace(self, conn, kind: str, message: Optional[str]) -> None:
        """Record a dead or hung worker's index as failed; start another."""
        proc, index, _ = self.busy.pop(conn)
        conn.close()
        if kind == FAIL_TIMEOUT:
            proc.kill()
        proc.join(timeout=5.0)
        if message is None:
            message = f"worker exited with code {proc.exitcode} mid-trial"
        self.results.record(index, kind, message)
        self._spawn()

    def _wait_s(self) -> Optional[float]:
        """Seconds to the nearest watchdog deadline (``None``: no timeout)."""
        deadlines = [d for _, _, d in self.busy.values() if d is not None]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def run(self) -> None:
        try:
            for _ in range(self.workers):
                self._spawn()
            while self.busy:
                for conn in wait(list(self.busy), self._wait_s()):
                    try:
                        kind, payload = conn.recv()
                    except (EOFError, OSError):
                        self._replace(conn, FAIL_CRASH, None)
                    else:
                        self._resolve(conn, kind, payload)
                now = time.monotonic()
                for conn, (_, _, deadline) in list(self.busy.items()):
                    if deadline is not None and now > deadline:
                        self._replace(conn, FAIL_TIMEOUT, (
                            f"trial exceeded its {self.timeout}s timeout "
                            f"(hung worker killed by watchdog)"))
        finally:
            for proc, _, _ in self.busy.values():
                proc.kill()
            for proc in self.procs:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
