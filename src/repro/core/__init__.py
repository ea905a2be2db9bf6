"""The paper's contribution layer.

Everything below this package is substrate (radios, stacks, attacks,
defenses).  This package composes them into the paper's actual
content:

* :mod:`repro.core.scenario` — executable versions of the paper's
  figures: the corporate WLAN of Fig. 1, the download MITM of Fig. 2,
  the VPN-through-rogue deployment of Fig. 3, plus the hostile
  hotspot and wired-office comparison settings.
* :mod:`repro.core.threatmodel` — the §1–§3 threat taxonomy with
  wired/wireless applicability.
* :mod:`repro.core.experiments` / :mod:`repro.core.registry` — one
  runner per table or figure, registered under its experiment id for
  the CLI and the benchmark harness.
* :mod:`repro.core.campaign` — multi-seed trial runner.
* :mod:`repro.core.report` — table rendering.
"""

from repro.core.campaign import TrialStats, run_trials
from repro.core.report import format_table
from repro.core.scenario import (
    CorpScenario,
    HotspotScenario,
    WiredOfficeScenario,
    build_corp_scenario,
    build_hotspot_scenario,
    build_wired_office,
)
from repro.core.threatmodel import Threat, ThreatApplicability, threat_taxonomy

__all__ = [
    "CorpScenario",
    "HotspotScenario",
    "Threat",
    "ThreatApplicability",
    "TrialStats",
    "WiredOfficeScenario",
    "build_corp_scenario",
    "build_hotspot_scenario",
    "build_wired_office",
    "format_table",
    "run_trials",
    "threat_taxonomy",
]
