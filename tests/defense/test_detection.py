"""§2.3 detection: sequence-control monitoring, site survey, wired census."""

from repro.attacks.deauth import DeauthAttacker
from repro.attacks.sniffer import MonitorSniffer
from repro.core.scenario import build_corp_scenario
from repro.defense.audit import AuthorizedAp, radio_site_survey, wired_side_census
from repro.wids.detectors import SeqCtlMonitor
from repro.dot11.capture import CapturedFrame, FrameCapture
from repro.dot11.frames import make_beacon
from repro.dot11.mac import MacAddress
from repro.radio.propagation import Position

BSSID = MacAddress("aa:bb:cc:dd:00:01")


def _synthetic_capture(streams, channel_by_stream=None):
    """Build a capture of beacons from one or more seq-number streams
    all claiming the same transmitter address."""
    cap = FrameCapture()
    t = 0.0
    idx = [0] * len(streams)
    # interleave round-robin
    total = sum(len(s) for s in streams)
    while sum(idx) < total:
        for i, stream in enumerate(streams):
            if idx[i] < len(stream):
                ch = (channel_by_stream or {}).get(i, 1)
                frame = make_beacon(BSSID, "CORP", ch, seq=stream[idx[i]])
                cap.add(CapturedFrame(time=t, channel=ch, rssi_dbm=-50.0, frame=frame))
                idx[i] += 1
                t += 0.1
    return cap


def test_single_transmitter_not_flagged():
    cap = _synthetic_capture([list(range(100, 200))])
    verdict = SeqCtlMonitor(cap).analyze_transmitter(BSSID)
    assert not verdict.spoofed
    assert verdict.anomalies == 0


def test_single_transmitter_with_monitor_loss_not_flagged():
    """Missing every few frames creates small gaps — below threshold."""
    seqs = [s for s in range(100, 300) if s % 7 != 0]
    cap = _synthetic_capture([seqs])
    verdict = SeqCtlMonitor(cap, gap_threshold=64).analyze_transmitter(BSSID)
    assert not verdict.spoofed


def test_interleaved_streams_flagged():
    """Two radios under one address: gaps jump between the two counters."""
    cap = _synthetic_capture([list(range(100, 160)), list(range(3000, 3060))])
    verdict = SeqCtlMonitor(cap).analyze_transmitter(BSSID)
    assert verdict.spoofed
    assert "interleaved" in verdict.reason or "channels" in verdict.reason


def test_same_address_two_channels_flagged():
    cap = _synthetic_capture(
        [list(range(0, 30)), list(range(0, 30))],
        channel_by_stream={0: 1, 1: 6})
    verdict = SeqCtlMonitor(cap).analyze_transmitter(BSSID)
    assert verdict.spoofed
    assert "two radios" in verdict.reason


def test_wrap_around_not_flagged():
    seqs = list(range(4080, 4096)) + list(range(0, 50))
    cap = _synthetic_capture([seqs])
    verdict = SeqCtlMonitor(cap).analyze_transmitter(BSSID)
    assert not verdict.spoofed


def test_live_rogue_detected_by_monitor():
    """End-to-end: Fig. 1's cloned-BSSID rogue against a real capture."""
    scenario = build_corp_scenario(seed=91)
    sniffer = MonitorSniffer(scenario.sim, scenario.medium, Position(15.0, 5.0))
    scenario.sim.run_for(20.0)  # collect beacons from both APs
    monitor = SeqCtlMonitor(sniffer.capture)
    verdict = monitor.analyze_transmitter(scenario.ap.bssid)
    assert verdict.spoofed
    assert 6 in verdict.channels_seen and 1 in verdict.channels_seen


def test_live_clean_network_no_false_positive():
    scenario = build_corp_scenario(seed=92, with_rogue=False)
    sniffer = MonitorSniffer(scenario.sim, scenario.medium, Position(15.0, 5.0))
    victim = scenario.add_victim()
    scenario.sim.run_for(20.0)
    flagged = SeqCtlMonitor(sniffer.capture).flagged()
    assert flagged == []


def test_deauth_injector_detected():
    """The forged-deauth injector shares the AP's address but not its
    counter — classic Wright-style spoof evidence."""
    scenario = build_corp_scenario(seed=93, with_rogue=False)
    sniffer = MonitorSniffer(scenario.sim, scenario.medium, Position(15.0, 5.0))
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    attacker = DeauthAttacker(scenario.sim, scenario.medium, Position(10.0, 0.0),
                              ap_bssid=scenario.ap.bssid, channel=1,
                              target=victim.wlan.mac, rate_hz=10.0)
    attacker.start()
    scenario.sim.run_for(10.0)
    attacker.stop()
    verdict = SeqCtlMonitor(sniffer.capture).analyze_transmitter(scenario.ap.bssid)
    assert verdict.spoofed


# ----------------------------------------------------------------------
# audits
# ----------------------------------------------------------------------

def test_site_survey_flags_cloned_bssid_on_new_channel():
    scenario = build_corp_scenario(seed=94)
    sniffer = MonitorSniffer(scenario.sim, scenario.medium, Position(15.0, 5.0))
    scenario.sim.run_for(5.0)
    inventory = [AuthorizedAp(bssid=scenario.ap.bssid, ssid="CORP", channel=1)]
    findings = radio_site_survey(sniffer.capture, inventory)
    assert len(findings) == 1
    assert findings[0].channel == 6
    assert "cloned" in findings[0].issue


def test_site_survey_clean_inventory_no_findings():
    scenario = build_corp_scenario(seed=95, with_rogue=False)
    sniffer = MonitorSniffer(scenario.sim, scenario.medium, Position(15.0, 5.0))
    scenario.sim.run_for(5.0)
    inventory = [AuthorizedAp(bssid=scenario.ap.bssid, ssid="CORP", channel=1)]
    assert radio_site_survey(sniffer.capture, inventory) == []


def test_site_survey_flags_foreign_ssid_advertiser():
    cap = FrameCapture()
    foreign = MacAddress("66:66:66:66:66:66")
    cap.add(CapturedFrame(time=0, channel=3, rssi_dbm=-40,
                          frame=make_beacon(foreign, "CORP", 3)))
    findings = radio_site_survey(cap, [AuthorizedAp(BSSID, "CORP", 1)])
    assert len(findings) == 1
    assert "unknown BSSID" in findings[0].issue


def test_wired_census_blind_to_parprouted_rogue():
    """§2.3's wired-side monitoring cannot see the Fig. 1 rogue: it
    bridges at L3 behind its own valid-client MAC."""
    scenario = build_corp_scenario(seed=96)
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    rtts = []
    victim.ping("10.0.0.1", on_reply=rtts.append)
    scenario.sim.run_for(3.0)
    assert rtts  # traffic flowed through the rogue onto the wire
    inventory = [scenario.ap.bssid,
                 scenario.wan.router.interfaces["lan0"].mac,
                 victim.wlan.mac,
                 scenario.rogue.eth1.mac]  # the attacker IS an inventoried client
    unknown = wired_side_census(scenario.lan, inventory)
    assert unknown == []  # nothing new ever appeared on the wire


def test_wired_census_catches_uninventoried_device():
    scenario = build_corp_scenario(seed=97, with_rogue=False)
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    victim.ping("10.0.0.1")
    scenario.sim.run_for(2.0)
    unknown = wired_side_census(scenario.lan, [scenario.ap.bssid])
    assert victim.wlan.mac in unknown
