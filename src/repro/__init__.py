"""repro — reproduction of "Countering Rogues in Wireless Networks" (ICPP 2003).

A from-scratch Python implementation of everything the paper builds on
and demonstrates: an 802.11b simulator (radio medium, MAC frames, WEP),
a TCP/IP stack with Netfilter, the rogue-AP / parprouted / netsed
man-in-the-middle of §4, the link-layer defenses §2 finds insufficient,
and the PPP-over-SSH VPN solution of §5 — plus the experiment registry
that regenerates each figure and checks its falsifiable claims.

Quick start::

    from repro import build_corp_scenario

    scenario = build_corp_scenario(seed=1)       # Fig. 1 world
    scenario.arm_download_mitm()                 # Fig. 2 netsed rules
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    outcome = scenario.run_download_experiment(victim)
    print(outcome.compromised)                   # True: MD5 passed on a trojan

See ``examples/`` for runnable walk-throughs and ``python -m repro run
all`` for every figure's reproduction, checked against its claims.
"""

from repro.core.scenario import (
    CorpScenario,
    HotspotScenario,
    WiredOfficeScenario,
    build_corp_scenario,
    build_hotspot_scenario,
    build_wired_office,
)
from repro.core.threatmodel import Threat, ThreatApplicability, threat_taxonomy
from repro.sim.kernel import Simulator

__version__ = "1.0.0"

__all__ = [
    "CorpScenario",
    "HotspotScenario",
    "Simulator",
    "Threat",
    "ThreatApplicability",
    "WiredOfficeScenario",
    "build_corp_scenario",
    "build_hotspot_scenario",
    "build_wired_office",
    "threat_taxonomy",
    "__version__",
]
