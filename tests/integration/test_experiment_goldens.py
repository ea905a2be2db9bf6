"""Registered experiments must reproduce their checked-in result digests.

``experiment_goldens.json`` holds, per experiment, pinned runner
arguments and the sha256 of the result's canonical JSON, generated by
``gen_experiment_goldens.py`` on the tree before the change it guards.
A mismatch means a change moved a paper number.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.integration.gen_experiment_goldens import GOLDENS_PATH, run_digest

GOLDENS = json.loads(Path(GOLDENS_PATH).read_text())["experiments"]
RUNS = [(exp_id, run["kwargs"], run["sha256"])
        for exp_id, runs in sorted(GOLDENS.items()) for run in runs]


@pytest.mark.parametrize(
    "exp_id,kwargs,sha256", RUNS,
    ids=[exp_id + ":" + ",".join(f"{k}={v}" for k, v in sorted(kwargs.items()))
         for exp_id, kwargs, _ in RUNS])
def test_experiment_matches_golden_digest(exp_id, kwargs, sha256):
    assert run_digest(exp_id, kwargs) == sha256
