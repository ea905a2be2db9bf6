"""Scale sanity and attack variants that combine multiple mechanisms."""

import pytest

from repro.core.scenario import build_corp_scenario
from repro.hosts.station import Station
from repro.radio.propagation import Position


def test_ten_stations_share_the_bss():
    """Scale: a realistic office floor associates and moves traffic."""
    scenario = build_corp_scenario(seed=501, with_rogue=False)
    stations = []
    for i in range(10):
        sta = Station(scenario.sim, f"sta{i}", scenario.medium,
                      Position(3.0 + i * 2.0, (-1) ** i * 4.0))
        sta.connect("CORP", wep_key=scenario.wep, ip=f"10.0.0.{30 + i}",
                    gateway="10.0.0.1")
        stations.append(sta)
    scenario.sim.run_for(10.0)
    assert all(s.wlan.associated for s in stations)
    rtts = []
    for sta in stations:
        sta.ping("10.0.0.1", on_reply=rtts.append)
    scenario.sim.run_for(5.0)
    assert len(rtts) == 10
    # Client-to-client through the AP still works amid the crowd.
    cross = []
    stations[0].ping("10.0.0.39", on_reply=cross.append)
    scenario.sim.run_for(3.0)
    assert len(cross) == 1


def test_deterministic_full_attack_replay():
    """The complete §4 world replays bit-identically from its seed."""

    def run():
        scenario = build_corp_scenario(seed=503)
        scenario.arm_download_mitm()
        victim = scenario.add_victim()
        scenario.sim.run_for(5.0)
        outcome = scenario.run_download_experiment(victim)
        return (outcome.compromised, outcome.computed_md5,
                scenario.sim.events_dispatched,
                scenario.rogue.netsed.total_replacements,
                len(scenario.sim.trace.records))

    assert run() == run()
