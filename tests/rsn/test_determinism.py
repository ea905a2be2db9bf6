"""Determinism pins for the RSN experiments.

Same contract as the FIG2 goldens: each experiment is a pure function
of its seed, and running a campaign of them serially or across worker
processes yields bit-identical merged results.  The trial value is a
CRC over the *entire* canonical result dict — flags, world summaries,
and scorecards — so any nondeterminism anywhere in the payload breaks
the equality, not just in the headline flag.
"""

import json
from zlib import crc32

from repro.core.campaign import run_trials
from repro.fleet import run_campaign
from repro.rsn.experiment import exp_csa_lure, exp_downgrade, exp_pmf_flood


def _digest(result) -> float:
    return float(crc32(json.dumps(result, sort_keys=True,
                                  default=str).encode()))


def pmf_trial(seed):
    return _digest(exp_pmf_flood(seed=seed))


def downgrade_trial(seed):
    return _digest(exp_downgrade(seed=seed))


def csa_trial(seed):
    return _digest(exp_csa_lure(seed=seed))


def test_experiments_pure_functions_of_seed():
    assert exp_pmf_flood(seed=5) == exp_pmf_flood(seed=5)
    # and the seed actually matters (worlds are not secretly static)
    assert _digest(exp_pmf_flood(seed=5)) != _digest(exp_pmf_flood(seed=6))


def test_pmf_campaign_identical_serial_vs_parallel():
    serial = run_trials(2, pmf_trial, seed_base=500)
    parallel = run_campaign(2, pmf_trial, seed_base=500, workers=2).stats
    assert serial.values == parallel.values


def test_downgrade_campaign_identical_serial_vs_parallel():
    serial = run_trials(2, downgrade_trial, seed_base=500)
    parallel = run_campaign(2, downgrade_trial, seed_base=500, workers=2).stats
    assert serial.values == parallel.values


def test_csa_campaign_identical_serial_vs_parallel():
    serial = run_trials(2, csa_trial, seed_base=500)
    parallel = run_campaign(2, csa_trial, seed_base=500, workers=2).stats
    assert serial.values == parallel.values
