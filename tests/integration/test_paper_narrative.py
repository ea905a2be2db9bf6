"""The paper's §4 proof-of-concept, end to end, as one narrative test,
plus cross-cutting claims that span attack and defense layers."""

import pytest

from repro.core.scenario import EVIL_IP, TARGET_IP, build_corp_scenario
from repro.radio.propagation import Position


def test_full_section4_experiment():
    """Every §4.1 stage, in order, in one world."""
    # Stage 0: the corporate network exists; WEP and the key are set.
    scenario = build_corp_scenario(seed=201)
    sim = scenario.sim

    # Stage 1: "The attacker will first authenticate to the existing
    # network as a valid client with one WiFi card."
    assert scenario.rogue.upstream_associated

    # Stage 2: the second card is in Master mode with the same SSID,
    # same WEP key, cloned BSSID, different channel.
    core = scenario.rogue.wlan0.core
    assert core.ssid == "CORP"
    assert core.bssid == scenario.ap.bssid
    assert core.channel == 6
    assert core.wep is not None and core.wep.key == scenario.wep.key

    # Stage 3: parprouted bridges, per Appendix A.
    assert scenario.rogue.host.ip_forward
    assert scenario.rogue.host.interfaces["wlan0"].proxy_arp
    assert scenario.rogue.host.interfaces["eth1"].proxy_arp

    # Stage 4: the iptables DNAT + netsed rules.
    scenario.arm_download_mitm()
    assert any("DNAT" in cmd for cmd in scenario.rogue.box.history)

    # Stage 5: "As clients connect, some will doubtlessly accidentally
    # connect to the Rogue AP."
    victim = scenario.add_victim()
    sim.run_for(5.0)
    assert victim.associated_channel == 6
    assert victim.wlan.mac in scenario.rogue.captured_clients()

    # Stage 6: the download. The page's link and MD5SUM are rewritten
    # in flight; the victim's check passes; the trojan runs.
    outcome = scenario.run_download_experiment(victim)
    assert EVIL_IP in outcome.link.replace("%2f", "/")
    assert outcome.md5_ok is True
    assert outcome.compromised

    # Stage 7 (§5): the same victim, VPN'd, is immune.
    vpn = scenario.connect_vpn(victim)
    sim.run_for(5.0)
    assert vpn.connected
    protected = scenario.run_download_experiment(victim, settle_s=90.0)
    assert protected.md5_ok is True
    assert not protected.compromised


def test_wep_provides_no_protection_against_insider_rogue():
    """§2.1: 'in the attack scenarios we present here [WEP] provides no
    protection what so ever' — compromise rate is identical with WEP
    off and WEP on when the rogue holds the key."""
    results = {}
    for wep in (False, True):
        scenario = build_corp_scenario(seed=202, wep=wep)
        scenario.arm_download_mitm()
        victim = scenario.add_victim()
        scenario.sim.run_for(5.0)
        outcome = scenario.run_download_experiment(victim)
        results[wep] = outcome.compromised
    assert results[False] is True
    assert results[True] is True  # WEP changed nothing


def test_mac_filter_defeated_by_sniff_and_spoof():
    """§2.1: MAC filtering 'accomplishes nothing more than perhaps
    keeping honest people honest'."""
    from repro.attacks.mac_spoof import observe_client_macs, spoof_mac
    from repro.attacks.sniffer import MonitorSniffer
    from repro.hosts.ap_core import MacFilter
    from repro.hosts.station import Station

    # AP filters to exactly one allowed client.
    scenario = build_corp_scenario(seed=203, with_rogue=False, wep=False)
    allowed = scenario.sim  # placeholder; we add the client below
    victim = scenario.add_victim()
    scenario.ap.core.mac_filter.allow(victim.wlan.mac)
    # (filter was permissive until now; re-scope it to enforce)
    scenario.sim.run_for(5.0)

    # An honest outsider is denied.
    outsider = Station(scenario.sim, "outsider", scenario.medium, Position(12, 0))
    outsider.connect("CORP", wep_key=None, ip="10.0.0.50")
    scenario.sim.run_for(5.0)
    assert not outsider.wlan.associated

    # The dishonest outsider sniffs a valid MAC and takes it.
    sniffer = MonitorSniffer(scenario.sim, scenario.medium, Position(12, 2))
    rtts = []
    victim.ping("10.0.0.1", on_reply=rtts.append)  # some victim traffic to observe
    scenario.sim.run_for(3.0)
    harvested = observe_client_macs(sniffer, bssid=scenario.ap.bssid)
    assert victim.wlan.mac in harvested
    outsider.wlan.leave()
    scenario.sim.run_for(1.0)
    spoof_mac(outsider.wlan, harvested[0])
    outsider.wlan.auto_reconnect = True
    outsider.wlan.join("CORP")
    scenario.sim.run_for(8.0)
    assert outsider.wlan.associated  # filter defeated


def test_rogue_without_wep_key_cannot_capture_wep_clients():
    """Sanity boundary: the §4 attack does need the key (valid client
    or Airsnort) when the network runs WEP."""
    scenario = build_corp_scenario(seed=204, with_rogue=False)
    scenario.add_rogue(None)
    scenario.sim.run_for(4.0)
    victim = scenario.add_victim()
    scenario.sim.run_for(8.0)
    # The rogue beacons an open network; the WEP-configured victim's
    # scan rejects the privacy mismatch and stays on the real AP.
    assert victim.associated_channel == 1


def test_trace_records_the_attack_timeline():
    scenario = build_corp_scenario(seed=205)
    scenario.arm_download_mitm()
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    scenario.run_download_experiment(victim)
    trace = scenario.sim.trace
    assert trace.count("rogue.start") == 1
    assert trace.count("rogue.mitm_armed") == 1
    assert trace.count("parprouted.start") == 1
    assert trace.count("netsed.rewrite") >= 1
    assert trace.count("browser.compromised") == 1
