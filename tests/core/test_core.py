"""Core layer: threat taxonomy, campaign runner, reporting."""

import importlib
import math

import pytest

from repro.core.campaign import TrialStats, run_trials
from repro.core.report import format_table
from repro.core.threatmodel import Threat, ThreatApplicability, threat_taxonomy


def test_taxonomy_covers_paper_threats():
    threats = {t.name for t in threat_taxonomy()}
    assert {"eavesdropping", "jamming", "spoofing", "rogue-access-point",
            "man-in-the-middle", "hostile-hotspot"} == threats


def test_every_threat_is_wireless_amplified():
    """The paper's thesis as an invariant over the taxonomy."""
    for threat in threat_taxonomy():
        assert threat.wireless_amplified, threat.name


def test_taxonomy_anchors_and_modules():
    """Every module a threat names imports; only jamming names none."""
    unsimulated = []
    for threat in threat_taxonomy():
        assert threat.paper_anchor.startswith("§")
        if not threat.demonstrated_by:
            unsimulated.append(threat.name)
            continue
        for name in threat.demonstrated_by.split(","):
            importlib.import_module(name.strip())
    assert unsimulated == ["jamming"]


def test_trial_stats_aggregation():
    stats = TrialStats()
    for v in (1.0, 0.0, 1.0, 1.0):
        stats.add(v)
    assert stats.n == 4
    assert stats.mean == 0.75
    assert stats.rate == 0.75
    assert stats.stdev == pytest.approx(0.5)


def test_trial_stats_empty():
    assert math.isnan(TrialStats().mean)


def test_run_trials_uses_distinct_seeds():
    seeds = []
    run_trials(5, lambda seed: (seeds.append(seed), 0.0)[1])
    assert len(set(seeds)) == 5


def test_run_trials_reproducible():
    def trial(seed):
        from repro.sim.rng import SimRandom
        return SimRandom(seed).random()

    a = run_trials(10, trial)
    b = run_trials(10, trial)
    assert a.values == b.values


def test_format_table_alignment():
    out = format_table(
        ["arm", "compromised", "rate"],
        [["no-vpn", True, 1.0], ["vpn", False, 0.0]],
        title="FIG3")
    lines = out.splitlines()
    assert lines[0] == "FIG3"
    assert "arm" in lines[1] and "compromised" in lines[1]
    assert "yes" in out and "no" in out
    # Columns align: every row same length.
    assert len(set(len(l) for l in lines[2:])) <= 2
