"""Passive attacks: sniffing, Airsnort WEP cracking, MAC harvesting."""

import pytest

from repro.attacks.airsnort import AirsnortAttack
from repro.attacks.mac_spoof import observe_client_macs, spoof_mac
from repro.attacks.sniffer import MonitorSniffer
from repro.core.scenario import build_corp_scenario
from repro.crypto.wep import WepKey
from repro.netstack.ethernet import ETHERTYPE_IPV4
from repro.radio.propagation import Position
from repro.workloads.traffic import WeakIvSweep, WepTrafficPump


@pytest.fixture(scope="module")
def sniffed_world():
    """A corp WLAN with a victim generating WEP traffic and a sniffer."""
    scenario = build_corp_scenario(seed=31, with_rogue=False)
    sniffer = MonitorSniffer(scenario.sim, scenario.medium, Position(20.0, 5.0))
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    victim.wlan.iv_gen = WeakIvSweep()
    pump = WepTrafficPump(victim, "10.0.0.1", rate_pps=400.0)
    pump.start()
    scenario.sim.run_for(20.0)
    pump.stop()
    return scenario, sniffer, victim


def test_sniffer_sees_protected_frames(sniffed_world):
    scenario, sniffer, victim = sniffed_world
    from repro.dot11.frames import FrameSubtype
    protected = sniffer.capture.count(subtype=FrameSubtype.DATA, protected=True)
    assert protected > 1000


def test_sniffer_cannot_read_without_key(sniffed_world):
    """WEP does hide payload bytes from a keyless bystander..."""
    scenario, sniffer, victim = sniffed_world
    wrong = WepKey(b"WRONG")
    decrypted = list(sniffer.decrypted_payloads(wrong))
    assert decrypted == []


def test_sniffer_reads_everything_with_key(sniffed_world):
    """...but any valid client (same shared key) reads everyone (§1.1)."""
    scenario, sniffer, victim = sniffed_world
    payloads = list(sniffer.decrypted_payloads(scenario.wep))
    assert len(payloads) > 1000
    ip_payloads = [p for _, et, p in payloads if et == ETHERTYPE_IPV4]
    assert any(b"background traffic" in p for p in ip_payloads)


def test_fms_samples_extracted(sniffed_world):
    scenario, sniffer, victim = sniffed_world
    samples = list(sniffer.fms_samples())
    assert len(samples) > 1000
    iv, ks0 = samples[0]
    assert len(iv) == 3 and 0 <= ks0 <= 255


def test_airsnort_recovers_wep_key(sniffed_world):
    """§4: 'an outside attacker who has retrieved the WEP key via
    Airsnort' — end-to-end over the air, from the captured weak-IV
    frames to the verified root key."""
    scenario, sniffer, victim = sniffed_world
    attack = AirsnortAttack(sniffer)
    fed = attack.ingest()
    assert fed > 1000
    cracked = attack.crack()
    tries = 0
    pump = WepTrafficPump(victim, "10.0.0.1", rate_pps=400.0)
    pump.start()
    while cracked is None and tries < 6:
        scenario.sim.run_for(20.0)
        cracked = attack.crack()
        tries += 1
    pump.stop()
    assert cracked is not None
    assert cracked.key == scenario.wep.key


def test_observe_client_macs_harvests_valid_stations(sniffed_world):
    scenario, sniffer, victim = sniffed_world
    macs = observe_client_macs(sniffer, bssid=scenario.ap.bssid)
    assert victim.wlan.mac in macs


def test_spoof_mac_changes_identity():
    scenario = build_corp_scenario(seed=32, with_rogue=False)
    from repro.hosts.station import Station
    attacker = Station(scenario.sim, "attacker", scenario.medium, Position(15, 0))
    stolen = scenario.sim.rng.substream("victim-mac")
    from repro.dot11.mac import MacAddress
    target_mac = MacAddress("00:02:2d:77:88:99")
    original = spoof_mac(attacker.wlan, target_mac)
    assert attacker.wlan.mac == target_mac
    assert original != target_mac


def test_airsnort_ingest_rounds_equal_one_final_ingest(monkeypatch):
    """Ingesting a growing capture round by round feeds the same vote
    samples as one ingest at the end, and parses each frame once."""
    from repro.attacks import sniffer as sniffer_mod
    from repro.crypto.fms import weak_iv_for
    from repro.crypto.wep import wep_encrypt
    from repro.dot11.capture import CapturedFrame
    from repro.dot11.frames import make_beacon, make_data
    from repro.dot11.mac import MacAddress
    from repro.radio.medium import Medium
    from repro.sim.kernel import Simulator

    ap = MacAddress("aa:bb:cc:dd:00:01")
    sta = MacAddress("00:02:2d:00:00:07")
    key = WepKey(b"\x01\x02\x03\x04\x05")
    sim = Simulator(seed=3)
    sniffer = MonitorSniffer(sim, Medium(sim), Position(0.0, 0.0))
    stepwise, final = AirsnortAttack(sniffer), AirsnortAttack(sniffer)

    parsed = []
    real_iv_of = sniffer_mod.wep_iv_of

    def counting_iv_of(body):
        parsed.append(body)
        return real_iv_of(body)

    monkeypatch.setattr(sniffer_mod, "wep_iv_of", counting_iv_of)
    n = 0
    for _round in range(6):
        for _ in range(40):
            iv = weak_iv_for(n % 5, n // 5 % 256)
            body = wep_encrypt(key, iv, b"\xaa\xaa\x03\x00\x00\x00\x08\x00x")
            for frame in (make_data(sta, ap, ap, body, to_ds=True,
                                    protected=True, seq=n),
                          make_data(sta, ap, ap, b"\x00", to_ds=True,
                                    protected=True, seq=n),  # truncated
                          make_beacon(ap, "CORP", 1, seq=n)):
                sniffer.capture.add(CapturedFrame(
                    time=n * 0.01, channel=1, rssi_dbm=-50.0, frame=frame))
            n += 1
        assert stepwise.ingest() == 40
    assert stepwise.ingest() == 0
    protected = 2 * n
    assert len(parsed) == protected

    assert final.ingest() == n
    assert final.fms._buckets == stepwise.fms._buckets
    assert (final.fms.samples_seen, final.fms.weak_samples) == \
        (stepwise.fms.samples_seen, stepwise.fms.weak_samples) == (n, n)
