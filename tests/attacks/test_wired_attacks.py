"""Wired MITM baselines: DNS spoofing and the taxonomy."""

import pytest

from repro.attacks.dns_spoof import DnsSpoofer
from repro.attacks.wired_mitm import wired_vs_wireless_paths
from repro.core.scenario import TARGET_IP, build_wired_office
from repro.hosts.services import DnsResolver
from repro.netstack.addressing import IPv4Address


def test_dns_spoof_succeeds_on_hub():
    """On a shared segment the attacker sees the query and wins the race."""
    office = build_wired_office(seed=53, fabric="hub")
    sim = office.sim
    resolver = DnsResolver(office.victim, "10.0.0.53")
    spoofer = DnsSpoofer(office.attacker, "eth0",
                         lies={"downloads.example.com": "10.0.0.66"})
    spoofer.arm()
    answers = []
    resolver.resolve("downloads.example.com", answers.append)
    sim.run_for(5.0)
    spoofer.disarm()
    assert spoofer.queries_seen >= 1
    assert spoofer.responses_forged >= 1
    assert answers == [IPv4Address("10.0.0.66")]  # the lie won the race


def test_dns_spoof_blind_on_switch():
    """On a switch the attacker never sees the query (§1.1's isolation)."""
    office = build_wired_office(seed=54, fabric="switch")
    sim = office.sim
    # Teach the switch where everyone is so queries aren't flooded.
    office.victim.ping("10.0.0.66")
    office.victim.ping("10.0.0.53")
    sim.run_for(2.0)
    resolver = DnsResolver(office.victim, "10.0.0.53")
    spoofer = DnsSpoofer(office.attacker, "eth0",
                         lies={"downloads.example.com": "10.0.0.66"})
    spoofer.arm()
    answers = []
    resolver.resolve("downloads.example.com", answers.append)
    sim.run_for(5.0)
    spoofer.disarm()
    assert spoofer.queries_seen == 0          # structurally blind
    assert answers == [IPv4Address(TARGET_IP)]  # honest answer arrived


def test_dns_spoof_ignores_unlisted_names():
    office = build_wired_office(seed=55, fabric="hub")
    sim = office.sim
    resolver = DnsResolver(office.victim, "10.0.0.53")
    spoofer = DnsSpoofer(office.attacker, "eth0", lies={"other.example": "6.6.6.6"})
    spoofer.arm()
    answers = []
    resolver.resolve("downloads.example.com", answers.append)
    sim.run_for(5.0)
    assert spoofer.queries_seen >= 1
    assert spoofer.responses_forged == 0
    assert answers == [IPv4Address(TARGET_IP)]


def test_taxonomy_structure():
    paths = wired_vs_wireless_paths()
    names = {p.name for p in paths}
    assert {"arp-spoof", "dns-spoof", "gateway-compromise",
            "rogue-ap", "hostile-hotspot"} == names
    wired = [p for p in paths if p.medium == "wired"]
    wireless = [p for p in paths if p.medium == "wireless"]
    assert len(wired) == 3 and len(wireless) == 2
    # The paper's claim in structural form: every wired path needs
    # inside access or a host compromise; no wireless path does.
    for p in wired:
        assert "inside" in p.physical_presence or "hardened" in p.physical_presence
    for p in wireless:
        assert "inside" not in p.physical_presence
