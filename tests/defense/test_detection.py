"""§2.3 detection: sequence-control monitoring."""

from repro.attacks.deauth import DeauthAttacker
from repro.attacks.sniffer import MonitorSniffer
from repro.core.scenario import build_corp_scenario
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
