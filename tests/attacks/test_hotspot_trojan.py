"""Hostile hotspot (§1.3.2/§5.1) and trojan packaging."""

import hashlib

import pytest

from repro.attacks.trojan import build_trojan_site, trojanize
from repro.core.scenario import build_hotspot_scenario
from repro.httpsim.downloads import LEGIT_MAGIC, TROJAN_MAGIC, is_trojaned, make_binary
from repro.sim.rng import SimRandom


# ----------------------------------------------------------------------
# trojan
# ----------------------------------------------------------------------

def test_trojanize_swaps_provenance_header():
    binary = make_binary("tool", 512, SimRandom(1))
    trojan = trojanize(binary)
    assert is_trojaned(trojan)
    assert not is_trojaned(binary)
    # The functional payload is preserved (the trojan still "works").
    assert trojan[len(TROJAN_MAGIC):] == binary[len(LEGIT_MAGIC):]


def test_trojan_md5_differs():
    """Different bytes → different MD5 — the reason the paper's attack
    must rewrite the published digest too."""
    binary = make_binary("tool", 512, SimRandom(2))
    assert hashlib.md5(binary).hexdigest() != hashlib.md5(trojanize(binary)).hexdigest()


def test_trojanize_arbitrary_blob():
    assert is_trojaned(trojanize(b"not-a-binary"))


def test_build_trojan_site_serves_trojan():
    binary = make_binary("tool", 512, SimRandom(3))
    site, trojan, path = build_trojan_site(binary)
    from repro.httpsim.messages import HttpRequest
    served = site.handle(HttpRequest("GET", path))
    assert served.status == 200
    assert served.body == trojan


# ----------------------------------------------------------------------
# hostile hotspot
# ----------------------------------------------------------------------

def test_visitor_gets_full_config_from_hotspot():
    world = build_hotspot_scenario(seed=61, hostile=True)
    station, browser = world.add_visitor()
    assert station.wlan.associated
    assert station.wlan.ip is not None
    assert browser.client.resolver is not None


def test_hostile_hotspot_injects_exploit():
    world = build_hotspot_scenario(seed=62, hostile=True)
    station, browser = world.add_visitor(patched=False)
    visit = browser.visit("http://news.example.com/index.html")
    world.sim.run_for(40.0)
    assert visit.status == 200
    assert visit.exploit_executed
    assert browser.compromised
    assert world.hotspot.tampered_segments >= 1


def test_honest_hotspot_harmless():
    world = build_hotspot_scenario(seed=63, hostile=False)
    station, browser = world.add_visitor(patched=False)
    visit = browser.visit("http://news.example.com/index.html")
    world.sim.run_for(40.0)
    assert visit.status == 200
    assert not visit.exploit_executed
    assert b"renderWeatherWidget" in visit.script


def test_patched_client_survives_hostile_hotspot():
    """§5.1's caveat inverted: the exploit is injected either way, but
    an up-to-date client shrugs it off."""
    world = build_hotspot_scenario(seed=64, hostile=True)
    station, browser = world.add_visitor(patched=True)
    visit = browser.visit("http://news.example.com/index.html")
    world.sim.run_for(40.0)
    assert world.hotspot.tampered_segments >= 1  # tampering happened
    assert not browser.compromised               # but didn't land


def test_tamper_preserves_stream_offsets():
    """In-path rewriting must not change segment lengths, or the
    victim's TCP would desynchronize; the injected script is padded."""
    world = build_hotspot_scenario(seed=65, hostile=True)
    station, browser = world.add_visitor()
    results = []
    browser.client.get("http://news.example.com/index.html", results.append)
    world.sim.run_for(40.0)
    assert results and results[0] is not None
    tampered_body = results[0].body
    # Same length as the honest page (padding preserved it).
    honest = build_hotspot_scenario(seed=65, hostile=False)
    station2, browser2 = honest.add_visitor()
    results2 = []
    browser2.client.get("http://news.example.com/index.html", results2.append)
    honest.sim.run_for(40.0)
    assert len(tampered_body) == len(results2[0].body)
