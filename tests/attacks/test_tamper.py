"""In-path tampering: gateway compromise and the anti-VPN corruption arm."""

import pytest

from repro.attacks.tamper import InPathTamperer, compromise_gateway
from repro.core.scenario import TARGET_IP, build_corp_scenario, build_wired_office
from repro.httpsim.browser import Browser
from repro.httpsim.client import HttpClient
from repro.netstack.addressing import IPv4Address
from repro.netstack.ipv4 import PROTO_TCP, IPv4Packet
from repro.netstack.tcp import TcpSegment

SRV = IPv4Address("10.0.0.2")
CLI = IPv4Address("10.0.0.1")


def test_tamperer_validates_args(wired_pair):
    _, a, _ = wired_pair
    with pytest.raises(ValueError):
        InPathTamperer(a, mode="nonsense")
    with pytest.raises(ValueError):
        InPathTamperer(a, mode="replace")  # no rules


def test_truncated_tcp_payload_passes_through_unmodified(wired_pair):
    _, a, _ = wired_pair
    tamperer = InPathTamperer(a, mode="corrupt", corrupt_nth=1)
    full = TcpSegment(src_port=80, dst_port=4000, seq=1, ack=1, flags=0x18,
                      window=8192, payload=b"MD5SUM").to_bytes(SRV, CLI)
    for cut in (0, 5, 19):
        packet = IPv4Packet(src=SRV, dst=CLI, proto=PROTO_TCP,
                            payload=full[:cut])
        assert tamperer._maybe_tamper(packet) is packet
    assert tamperer.tampered == 0


def test_decoder_bug_is_not_swallowed(wired_pair, monkeypatch):
    """Only the typed decode errors mean "not a TCP segment"; anything
    else is a simulator bug and must surface."""
    _, a, _ = wired_pair
    tamperer = InPathTamperer(a, mode="corrupt")

    def broken(*args, **kwargs):
        raise RuntimeError("decoder bug")

    monkeypatch.setattr(TcpSegment, "from_bytes", broken)
    packet = IPv4Packet(src=SRV, dst=CLI, proto=PROTO_TCP, payload=b"x")
    with pytest.raises(RuntimeError):
        tamperer._maybe_tamper(packet)


def test_gateway_compromise_rewrites_responses():
    """§1.2's third wired MITM path: the attacker owns the border router."""
    office = build_wired_office(seed=311, fabric="switch")
    tamperer = compromise_gateway(
        office.wan.router,
        rules=[(b"MD5SUM", b"HACKED")])
    results = []
    HttpClient(office.victim).get(f"http://{TARGET_IP}/download.html",
                                  results.append)
    office.sim.run_for(30.0)
    assert results and results[0] is not None
    assert b"HACKED" in results[0].body
    assert b"MD5SUM" not in results[0].body
    assert tamperer.tampered >= 1


def test_gateway_compromise_removal_restores_honesty():
    office = build_wired_office(seed=312, fabric="switch")
    tamperer = compromise_gateway(office.wan.router,
                                  rules=[(b"MD5SUM", b"HACKED")])
    tamperer.remove()
    results = []
    HttpClient(office.victim).get(f"http://{TARGET_IP}/download.html",
                                  results.append)
    office.sim.run_for(30.0)
    assert b"MD5SUM" in results[0].body
    assert tamperer.tampered == 0


def test_replace_mode_preserves_length():
    office = build_wired_office(seed=313, fabric="switch")
    compromise_gateway(office.wan.router, rules=[(b"MD5SUM:", b"X:")])
    results = []
    HttpClient(office.victim).get(f"http://{TARGET_IP}/download.html",
                                  results.append)
    office.sim.run_for(30.0)
    body = results[0].body
    assert b"X:     " in body  # padded to the original 7 bytes


def test_corrupt_mode_breaks_cleartext_download():
    """Corruption against unprotected TCP: the payload arrives damaged
    and nothing in cleartext HTTP notices — contrast with the VPN."""
    office = build_wired_office(seed=314, fabric="switch")
    InPathTamperer(office.wan.router, src_port=80, mode="corrupt").install()
    browser = Browser(office.victim)
    outcome = browser.download_and_run(f"http://{TARGET_IP}/download.html")
    office.sim.run_for(40.0)
    # The page or the binary got mangled: either parsing failed, the
    # link/digest was damaged, or the md5 check tripped.  What cannot
    # happen is a clean verified download.
    assert not (outcome.md5_ok and outcome.executed and not outcome.failed) \
        or outcome.computed_md5 != outcome.published_md5


def test_vpn_fails_closed_under_corruption_then_reconnects():
    """The rogue corrupts what it cannot read.  HMAC-SHA1 catches every
    damaged record, the session tears down (never silently accepts),
    and auto-reconnect restores service once the corruption stops."""
    scenario = build_corp_scenario(seed=315)
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    assert victim.associated_channel == 6

    from repro.crypto.keystore import KeyStore
    from repro.core.scenario import VPN_SERVER_NAME, VPN_SHARED_SECRET, VPN_IP
    from repro.defense.vpn import VpnClient
    ks = KeyStore()
    ks.enroll(VPN_SERVER_NAME, VPN_SHARED_SECRET)
    vpn = VpnClient(victim, ks, VPN_SERVER_NAME, VPN_IP, auto_reconnect=True)
    vpn.connect()
    scenario.sim.run_for(5.0)
    assert vpn.connected

    # The rogue starts corrupting the victim's port-22 stream.
    tamperer = InPathTamperer(scenario.rogue.host, dst_port=22,
                              mode="corrupt", corrupt_nth=1).install()
    rtts = []
    for _ in range(5):
        victim.ping(TARGET_IP, on_reply=rtts.append)
        scenario.sim.run_for(3.0)
    scenario.sim.run_for(15.0)
    # Integrity failure was detected somewhere (client or server side)
    # and the session was torn down at least once — never a silent pass.
    assert scenario.sim.trace.count("vpn.integrity_fail") >= 1
    assert scenario.sim.trace.count("vpn.disconnected") >= 1

    # Corruption ends; auto-reconnect restores the tunnel.
    tamperer.remove()
    for _ in range(12):
        scenario.sim.run_for(5.0)
        if vpn.connected:
            break
    assert vpn.connected
    assert vpn.reconnects >= 1
    rtts2 = []
    victim.ping(TARGET_IP, on_reply=rtts2.append)
    scenario.sim.run_for(10.0)
    assert rtts2  # service restored through the tunnel
