"""WPA-PSK over the air: handshake, TKIP data path, and the §2.2 gap."""

import hmac

import pytest

from repro.crypto.wpa_kdf import derive_ptk, psk_from_passphrase
from repro.dot11.mac import MacAddress
from repro.hosts.access_point import AccessPoint
from repro.hosts.station import Station
from repro.hosts.wpa_link import NONCE_LEN, StaWpaSession, WpaKeys
from repro.netstack.ethernet import Switch
from repro.radio.medium import Medium
from repro.radio.propagation import Position
from repro.sim.errors import ConfigurationError
from repro.sim.kernel import Simulator
from repro.sim.rng import SimRandom
from tests.conftest import make_wired_host

BSSID = MacAddress("aa:bb:cc:dd:00:01")
STA_MAC = MacAddress("00:02:2d:00:00:07")
PSK = psk_from_passphrase("office-passphrase", "CORP")


def build_wpa_bss(seed=1, *, psk=PSK):
    sim = Simulator(seed=seed)
    medium = Medium(sim)
    lan = Switch(sim, "lan")
    ap = AccessPoint(sim, medium, "ap", bssid=BSSID, ssid="CORP",
                     channel=1, position=Position(0, 0), wpa_psk=psk)
    ap.attach_uplink(lan)
    server = make_wired_host(sim, lan, "server", "10.0.0.1")
    return sim, medium, ap, server


def test_wep_and_wpa_mutually_exclusive():
    from repro.crypto.wep import WepKey
    sim = Simulator(seed=1)
    medium = Medium(sim)
    with pytest.raises(ConfigurationError):
        AccessPoint(sim, medium, "ap", bssid=BSSID, ssid="X", channel=1,
                    position=Position(0, 0),
                    wep_key=WepKey(b"12345"), wpa_psk=PSK)


def test_wpa_handshake_over_the_air():
    sim, medium, ap, server = build_wpa_bss()
    sta = Station(sim, "sta", medium, Position(10, 0))
    sta.connect("CORP", wpa_psk=PSK, ip="10.0.0.23")
    sim.run_for(5.0)
    assert sta.wlan.associated
    assert sta.wlan.link_ready           # 4-way completed
    assert ap.core.wpa_established(sta.wlan.mac)


def test_wpa_data_flows_tkip_protected():
    sim, medium, ap, server = build_wpa_bss()
    sta = Station(sim, "sta", medium, Position(10, 0))
    sta.connect("CORP", wpa_psk=PSK, ip="10.0.0.23")
    sim.run_for(5.0)
    rtts = []
    sta.ping("10.0.0.1", on_reply=rtts.append)
    sim.run_for(3.0)
    assert len(rtts) == 1
    # TCP too.
    got = []
    server.tcp_listen(80, lambda c: setattr(c, "on_data",
                                            lambda d: c.send(d.upper())))
    conn = sta.tcp_connect("10.0.0.1", 80)
    conn.on_data = got.append
    conn.on_established = lambda: conn.send(b"wpa works")
    sim.run_for(5.0)
    assert got == [b"WPA WORKS"]


def test_wpa_frames_are_actually_protected():
    """A monitor sees only TKIP ciphertext for the data exchange."""
    from repro.attacks.sniffer import MonitorSniffer
    from repro.dot11.frames import FrameSubtype
    sim, medium, ap, server = build_wpa_bss()
    sniffer = MonitorSniffer(sim, medium, Position(12, 3))
    sta = Station(sim, "sta", medium, Position(10, 0))
    sta.connect("CORP", wpa_psk=PSK, ip="10.0.0.23")
    sim.run_for(5.0)
    sock = sta.udp_socket()
    for _ in range(5):
        sock.sendto(b"super secret payload", "10.0.0.1", 9999)
    sim.run_for(2.0)
    protected = list(sniffer.capture.select(subtype=FrameSubtype.DATA,
                                            protected=True))
    assert protected
    assert all(b"super secret payload" not in c.frame.body for c in protected)


def test_wpa_wrong_psk_client_never_gets_link():
    sim, medium, ap, server = build_wpa_bss()
    sta = Station(sim, "intruder", medium, Position(10, 0))
    sta.connect("CORP", wpa_psk=psk_from_passphrase("wrong", "CORP"),
                ip="10.0.0.66")
    sim.run_for(8.0)
    assert sta.wlan.associated        # open assoc succeeds...
    assert not sta.wlan.link_ready    # ...but the 4-way never completes
    rtts = []
    sta.ping("10.0.0.1", on_reply=rtts.append)
    sim.run_for(3.0)
    assert rtts == []


def test_wpa_keyless_rogue_cannot_capture_client():
    """Over the air: the client refuses a rogue that can't prove PSK
    knowledge at message 3."""
    sim, medium, ap, server = build_wpa_bss()
    rogue_ap = AccessPoint(sim, medium, "rogue", bssid=BSSID, ssid="CORP",
                           channel=6, position=Position(18, 0),
                           wpa_psk=psk_from_passphrase("guessed", "CORP"))
    sta = Station(sim, "sta", medium, Position(16, 0))  # nearer the rogue
    sta.connect("CORP", wpa_psk=PSK, ip="10.0.0.23")
    sim.run_for(10.0)
    # The station may associate to the rogue at 802.11 level, but the
    # handshake fails and no data link ever forms with it.
    if sta.associated_channel == 6:
        assert not sta.wlan.link_ready
    assert not rogue_ap.core.wpa_established(sta.wlan.mac)


def test_wpa_client_refuses_msg3_under_a_guessed_psk():
    """A keyless rogue that pushes on past message 2 to a message 3 is
    caught by the client: msg3's MIC is the step that authenticates the
    network.  (Over the air the keyless AP stops at msg2, so only this
    unit test reaches the check.)"""
    sent = []
    sta = StaWpaSession(PSK, STA_MAC, BSSID, sent.append, SimRandom(5))
    anonce = b"R" * NONCE_LEN
    sta.handle_eapol(bytes([1]) + anonce)
    assert len(sent) == 1                       # msg2 went out
    rogue_ptk = derive_ptk(psk_from_passphrase("guessed", "CORP"),
                           anonce, sta.snonce, BSSID, STA_MAC)
    mic3 = hmac.digest(WpaKeys.from_ptk(rogue_ptk).kck, b"msg3" + anonce,
                       "sha1")
    sta.handle_eapol(bytes([3]) + mic3)
    assert sta.mic_failures == 1
    assert not sta.established
    assert sta.tx is None and sta.rx is None    # no keys installed
    assert len(sent) == 1                       # and no msg4


def test_wpa_insider_rogue_captures_client():
    """§2.2 over the air: a rogue holding the PSK (any valid client)
    completes the handshake and carries the victim's traffic."""
    sim, medium, ap, server = build_wpa_bss()
    rogue_ap = AccessPoint(sim, medium, "rogue", bssid=BSSID, ssid="CORP",
                           channel=6, position=Position(18, 0), wpa_psk=PSK)
    sta = Station(sim, "sta", medium, Position(16, 0))
    sta.connect("CORP", wpa_psk=PSK, ip="10.0.0.23")
    sim.run_for(8.0)
    assert sta.associated_channel == 6
    assert sta.wlan.link_ready
    assert rogue_ap.core.wpa_established(sta.wlan.mac)


def test_wpa_rekey_on_reassociation():
    """Each association derives fresh nonces → fresh PTK."""
    sim, medium, ap, server = build_wpa_bss()
    sta = Station(sim, "sta", medium, Position(10, 0))
    sta.connect("CORP", wpa_psk=PSK, ip="10.0.0.23")
    sim.run_for(5.0)
    first_keys = sta.wlan._wpa.keys.tk
    ap.core.deauth_client(sta.wlan.mac)
    sim.run_for(10.0)
    assert sta.wlan.link_ready
    assert sta.wlan._wpa.keys.tk != first_keys


def test_full_download_mitm_through_wpa_insider_rogue():
    """The whole §4 attack on a WPA-PSK network, staged by an insider:
    §2.2's warning made concrete end to end."""
    from repro.core.scenario import build_corp_scenario, EVIL_IP
    from repro.attacks.rogue_ap import RogueAccessPoint
    from repro.radio.propagation import Position as Pos

    scenario = build_corp_scenario(seed=401, wep=False, with_rogue=False)
    # Rebuild the BSS as WPA: swap the AP's crypto to PSK.
    scenario.ap.shutdown()
    from repro.hosts.access_point import AccessPoint
    wpa_ap = AccessPoint(scenario.sim, scenario.medium, "corp-wpa-ap",
                         bssid=BSSID, ssid="CORP", channel=1,
                         position=Pos(0, 0), wpa_psk=PSK)
    wpa_ap.attach_uplink(scenario.lan)
    scenario.ap = wpa_ap

    rogue = RogueAccessPoint(scenario.sim, scenario.medium, Pos(38, 0),
                             clone_bssid=BSSID, legit_channel=1,
                             rogue_channel=6, wpa_psk=PSK)
    rogue.start()
    scenario.rogue = rogue
    scenario.sim.run_for(4.0)
    assert rogue.upstream_associated
    assert rogue.eth1.link_ready

    scenario.arm_download_mitm()
    victim = Station(scenario.sim, "victim", scenario.medium, Pos(40, 0))
    victim.connect("CORP", wpa_psk=PSK, ip="10.0.0.23", gateway="10.0.0.1")
    scenario.sim.run_for(6.0)
    assert victim.associated_channel == 6
    assert victim.wlan.link_ready

    outcome = scenario.run_download_experiment(victim)
    assert outcome.md5_ok is True
    assert outcome.compromised  # WPA changed nothing against the insider
