"""Every registered WIDS detector earns its keep in a world it targets.

The E-WIDS worlds cover the beacon, sequence, deauth and second-radio
detectors; ``rsn-mismatch`` targets the E-DOWNGRADE worlds and
``unexpected-CSA`` the E-CSA worlds.  So this claim reads three
experiments at once and is checked here, over the union of their
scorecards, on the pinned runs the goldens test already computed.
"""

from __future__ import annotations

from tests.integration.gen_experiment_goldens import pinned_result


def test_every_detector_has_a_true_positive_in_a_pinned_world():
    rows = [row for exp_id in ("E-WIDS", "E-DOWNGRADE", "E-CSA")
            for row in pinned_result(exp_id, {})["scorecard"]["rows"]]
    detectors = {row["detector"] for row in rows}
    silent = sorted(det for det in detectors
                    if not any(row["tp"] > 0 for row in rows
                               if row["detector"] == det))
    assert not silent, silent
