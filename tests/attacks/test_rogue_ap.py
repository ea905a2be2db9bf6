"""The Fig. 1 rogue AP: capture, bridging, and the Fig. 2 download MITM."""

import pytest

from repro.core.scenario import (
    EVIL_IP,
    TARGET_HOSTNAME,
    TARGET_IP,
    VICTIM_IP,
    build_corp_scenario,
)
from repro.netstack.addressing import IPv4Address
from repro.radio.propagation import Position


@pytest.fixture(scope="module")
def mitm_world():
    """One armed scenario shared by the read-only assertions below."""
    scenario = build_corp_scenario(seed=21)
    scenario.arm_download_mitm()
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    return scenario, victim


def test_rogue_upstream_associates_as_valid_client(mitm_world):
    scenario, _ = mitm_world
    assert scenario.rogue.upstream_associated
    # It really did join the legitimate AP on channel 1.
    assert scenario.rogue.eth1.channel == 1
    assert scenario.rogue.eth1.bssid == scenario.ap.bssid


def test_victim_lands_on_rogue_channel(mitm_world):
    scenario, victim = mitm_world
    assert victim.wlan.associated
    assert victim.associated_channel == 6          # the rogue's channel
    assert victim.associated_bssid == scenario.ap.bssid  # cloned BSSID!
    assert victim.wlan.mac in scenario.rogue.captured_clients()


def test_victim_connectivity_via_bridge(mitm_world):
    scenario, victim = mitm_world
    rtts = []
    victim.ping("10.0.0.1", on_reply=rtts.append)
    scenario.sim.run_for(3.0)
    assert len(rtts) == 1  # transparent: the victim reaches its gateway


def test_parprouted_learned_victim_route(mitm_world):
    scenario, victim = mitm_world
    route = scenario.rogue.host.routing.lookup(victim.wlan.ip)
    assert route is not None
    assert route.interface == "wlan0"
    assert route.network.prefix_len == 32


def test_proxy_arp_answered_for_gateway(mitm_world):
    scenario, victim = mitm_world
    assert scenario.sim.trace.count("arp.proxy_reply",
                                    source=scenario.rogue.host.name) >= 1


def test_download_mitm_compromises_victim(mitm_world):
    scenario, victim = mitm_world
    outcome = scenario.run_download_experiment(victim)
    assert outcome.link is not None and EVIL_IP.replace(".", "") not in ""  # sanity
    assert EVIL_IP in outcome.link.replace("%2f", "/")
    assert outcome.md5_ok is True        # the forged digest matched
    assert outcome.executed
    assert outcome.trojaned
    assert outcome.compromised
    assert scenario.rogue.netsed.total_replacements >= 2


def test_other_traffic_passes_unmodified(mitm_world):
    """Fig. 2's 'No Rule Match' path: non-target-IP port-80 flows are
    forwarded, not proxied."""
    scenario, victim = mitm_world
    before = scenario.rogue.netsed.connections_proxied
    from repro.httpsim.client import HttpClient
    results = []
    HttpClient(victim).get(f"http://{EVIL_IP}/file.tgz", results.append)
    scenario.sim.run_for(20.0)
    assert results and results[0] is not None and results[0].status == 200
    assert scenario.rogue.netsed.connections_proxied == before


def test_control_arm_without_rogue_is_clean():
    scenario = build_corp_scenario(seed=22, with_rogue=False)
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    assert victim.associated_channel == 1
    outcome = scenario.run_download_experiment(victim)
    assert outcome.md5_ok is True
    assert not outcome.trojaned
    assert not outcome.compromised


def test_victim_near_legit_ap_not_captured():
    """A victim far from the rogue still picks the real AP."""
    scenario = build_corp_scenario(seed=23)
    victim = scenario.add_victim(position=Position(2.0, 0.0))
    scenario.sim.run_for(5.0)
    assert victim.associated_channel == 1
    assert victim.wlan.mac not in scenario.rogue.captured_clients()


def test_rogue_stop_tears_down():
    scenario = build_corp_scenario(seed=24)
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    assert victim.associated_channel == 6
    scenario.rogue.stop()
    scenario.sim.run_for(10.0)
    # Victim falls back to the legitimate AP after beacon loss.
    assert victim.associated_channel == 1


def test_honest_resolution_through_rogue():
    """The rogue forwards DNS answers honestly: its MITM is the
    netsed rewrite, not the resolver."""
    scenario = build_corp_scenario(seed=321)
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    assert victim.associated_channel == 6  # on the rogue
    resolver = scenario.resolver_for(victim)
    answers = []
    resolver.resolve(TARGET_HOSTNAME, answers.append)
    scenario.sim.run_for(5.0)
    assert answers == [IPv4Address(TARGET_IP)]
