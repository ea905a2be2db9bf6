"""E-WIDS — streaming detector bank vs the paper's rogue-AP worlds.

Expected shape:

* naive rogue world: the first alert lands *before* the netsed rewrite
  (detection beats compromise), and every beacon-visible detector fires;
* evasive rogue world: seqctl mirroring + cadence matching silence the
  gap and jitter analyses, but the fingerprint and multi-channel
  detectors still fire — a second radio on a second channel is
  physically unhideable;
* benign world: zero alerts at every threshold (zero false positives);
* every registered detector earns its keep in at least one of the
  worlds it targets.  The E-WIDS worlds cover the beacon, sequence,
  deauth and second-radio detectors; ``rsn-mismatch`` targets the
  E-DOWNGRADE worlds and ``unexpected-CSA`` the E-CSA worlds, so the
  claim is checked over the union of the three scorecards.
"""

from conftest import record_rows, run_once

from repro.rsn.experiment import exp_csa_lure, exp_downgrade
from repro.wids.experiment import exp_wids_eval


def test_wids_eval(benchmark):
    result = run_once(benchmark, exp_wids_eval, seed=1)
    rows = result["scorecard"]["rows"]
    record_rows("E-WIDS: detector bank confusion cells over threshold sweep",
               rows, area="wids")

    # Detection beats compromise on the Fig. 1/Fig. 2 world.
    assert result["alert_before_rewrite"], result["worlds"]["naive"]
    # Zero-FP acceptance bar on the benign office.
    assert result["benign_false_positives"] == 0
    for row in rows:
        assert row["fp"] == 0, row
    # The arms race: evasion silences the sequence/jitter analyses ...
    assert result["evasion"]["seqctl_evaded"]
    assert result["evasion"]["jitter_evaded"]
    # ... but the second radio on a second channel cannot hide.
    assert result["evasion"]["unhideable"] == ["fingerprint", "multichannel"]
    # Every detector earns its keep in at least one world it targets.
    targeted = rows + [row for exp in (exp_downgrade, exp_csa_lure)
                       for row in exp(seed=1)["scorecard"]["rows"]]
    detectors = {row["detector"] for row in targeted}
    for det in detectors:
        assert any(row["tp"] > 0 for row in targeted
                   if row["detector"] == det), det
