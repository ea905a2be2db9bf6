"""Process-parallel multi-seed campaign engine.

The paper's claims are statistical — luring success, capture rates,
tunnel overhead — so every figure is estimated by running the same
simulated world under many seeds.  This package shards those sweeps
across ``multiprocessing`` workers while keeping the repository's
determinism contract intact:

* a trial's result depends only on its seed, never on worker assignment
  or completion order;
* per-worker partials are reduced **in seed order** through the
  mergeable stats layer (:class:`~repro.core.campaign.TrialStats` and
  :mod:`repro.obs.metrics`), so parallel aggregates are bit-for-bit
  identical to serial ones;
* per-trial faults (exceptions, timeouts, dead workers) are retried and
  then *recorded*, never allowed to abort the sweep;
* a parent-side ``on_snapshot(index, snapshot)`` listener sees each
  successful trial's metrics snapshot as it lands, which is what
  ``sweep --port``/``--jsonl`` serve and stream.

Entry points: :func:`run_campaign` here, ``run_trials(..., workers=N)``
in :mod:`repro.core.campaign`, and ``python -m repro sweep`` on the
command line.  See DESIGN.md §7 for the architecture sketch.
"""

from repro.fleet.errors import (CampaignError, FleetError, TrialFailure,
                                FAIL_CRASH, FAIL_ERROR, FAIL_TIMEOUT)
from repro.fleet.reduce import campaign_stats, merge_all
from repro.fleet.scheduler import CampaignResult, run_campaign

__all__ = [
    "CampaignError",
    "CampaignResult",
    "FleetError",
    "TrialFailure",
    "FAIL_CRASH",
    "FAIL_ERROR",
    "FAIL_TIMEOUT",
    "campaign_stats",
    "merge_all",
    "run_campaign",
]
