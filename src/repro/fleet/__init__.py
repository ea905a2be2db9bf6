"""Process-parallel multi-seed campaign engine.

The paper's claims are statistical — luring success, capture rates,
tunnel overhead — so every figure is estimated by running the same
simulated world under many seeds.  This package shards those sweeps
across ``multiprocessing`` workers while keeping the repository's
determinism contract intact:

* a trial's result depends only on its seed, never on worker assignment
  or completion order;
* per-trial results are reduced **in seed order** into a
  :class:`~repro.core.campaign.TrialStats` and, through the mergeable
  :mod:`repro.obs.metrics` layer, one registry, so parallel aggregates
  are bit-for-bit identical to serial ones;
* every trial gets one attempt; a fault (exception, timeout, dead
  worker) is *recorded* with its traceback or cause, the rest of the
  sweep completes, and ``sweep`` exits 1;
* a parent-side ``on_snapshot(index, snapshot)`` listener sees each
  successful trial's metrics snapshot as it lands, which is what
  ``sweep --jsonl`` streams.

Entry points: :func:`run_campaign` here and ``python -m repro sweep``
on the command line.  See DESIGN.md §7 for the architecture sketch.
"""

from repro.fleet.errors import (FleetError, TrialFailure,
                                FAIL_CRASH, FAIL_ERROR, FAIL_TIMEOUT)
from repro.fleet.reduce import campaign_stats
from repro.fleet.scheduler import CampaignResult, run_campaign

__all__ = [
    "CampaignResult",
    "FleetError",
    "TrialFailure",
    "FAIL_CRASH",
    "FAIL_ERROR",
    "FAIL_TIMEOUT",
    "campaign_stats",
    "run_campaign",
]
