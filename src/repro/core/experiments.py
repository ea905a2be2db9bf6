"""Experiment runners: one function per table/figure of the reproduction.

Each function builds fresh worlds from seeds, measures, and returns a
plain dict of rows; :mod:`repro.core.claims` checks the expected
*shape* of each (who wins, by what rough factor).  EXPERIMENTS.md
records a reference run.

The experiment ids (FIG1..E-8021X) are indexed in DESIGN.md §4.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.airsnort import AirsnortAttack
from repro.attacks.deauth import DeauthAttacker
from repro.attacks.mac_spoof import observe_client_macs, spoof_mac
from repro.attacks.netsed import NetsedRule, StreamingRewriter, _PerSegmentRewriter
from repro.attacks.sniffer import MonitorSniffer
from repro.core.campaign import TrialStats, run_trials
from repro.core.scenario import (
    EVIL_IP,
    GATEWAY_IP,
    LEGIT_BSSID,
    TARGET_IP,
    VPN_IP,
    build_corp_scenario,
    build_hotspot_scenario,
    build_wired_office,
)
from repro.crypto.fms import FmsAttack, weak_iv_for
from repro.crypto.rc4 import rc4_keystream
from repro.crypto.wep import WepKey
from repro.wids.detectors import SeqCtlMonitor
from repro.hosts.nic import first_heard_policy, strongest_rssi_policy
from repro.hosts.station import Station
from repro.radio.propagation import Position
from repro.sim.rng import SimRandom
from repro.workloads.traffic import CbrUdpStream, WeakIvSweep, WepTrafficPump

__all__ = [
    "fig1_mitm_configuration",
    "fig2_download_mitm",
    "fig3_vpn_proxy",
    "exp_wep_no_protection",
    "exp_mac_filtering",
    "exp_airsnort_curve",
    "exp_deauth_capture",
    "exp_netsed_boundaries",
    "exp_wired_vs_wireless",
    "exp_vpn_overhead",
    "exp_rogue_detection",
    "exp_network_promiscuity",
    "exp_trusted_website",
    "exp_dot1x_wpa_gap",
]


# ----------------------------------------------------------------------
# FIG1 — the rogue-AP configuration captures clients transparently
# ----------------------------------------------------------------------

def fig1_mitm_configuration(seed: int = 1) -> dict:
    """Reproduce Figure 1 and validate its operational claims."""
    rows = []
    for policy_name, policy in (("strongest-rssi", strongest_rssi_policy),
                                ("first-heard", first_heard_policy)):
        scenario = build_corp_scenario(seed=seed)
        victim = scenario.add_victim(policy=policy)
        scenario.sim.run_for(5.0)
        rtts: list[float] = []
        victim.ping("10.0.0.1", on_reply=rtts.append)
        victim.ping(TARGET_IP, on_reply=rtts.append)
        scenario.sim.run_for(3.0)
        rows.append({
            "policy": policy_name,
            "rogue_upstream_associated": scenario.rogue.upstream_associated,
            "victim_channel": victim.associated_channel,
            "victim_bssid_cloned": victim.associated_bssid == scenario.ap.bssid,
            "captured_by_rogue": victim.wlan.mac in scenario.rogue.captured_clients(),
            "gateway_reachable": len(rtts) >= 1,
            "wan_reachable": len(rtts) == 2,
            "bridge_rtt_ms": round(rtts[0] * 1000, 2) if rtts else None,
        })
    return {"rows": rows}


# ----------------------------------------------------------------------
# FIG2 — the software-download MITM detail
# ----------------------------------------------------------------------

def fig2_download_mitm(seed: int = 1) -> dict:
    """Reproduce Figure 2: DNAT → netsed → rewritten page → trojan run."""
    rows = []
    for arm, mitm in (("control (no rogue)", False), ("rogue + netsed", True)):
        scenario = build_corp_scenario(seed=seed, with_rogue=mitm)
        if mitm:
            scenario.arm_download_mitm()
        victim = scenario.add_victim()
        scenario.sim.run_for(5.0)
        outcome = scenario.run_download_experiment(victim)
        rows.append({
            "arm": arm,
            "link_rewritten": outcome.link is not None and EVIL_IP in
                              outcome.link.replace("%2f", "/"),
            "md5_check_passed": outcome.md5_ok,
            "executed": outcome.executed,
            "trojaned": outcome.trojaned,
            "compromised": outcome.compromised,
            "netsed_replacements": (scenario.rogue.netsed.total_replacements
                                    if mitm else 0),
        })
    # The "No Rule Match" path of Fig. 2: off-target port-80 traffic.
    scenario = build_corp_scenario(seed=seed + 7)
    scenario.arm_download_mitm()
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    from repro.httpsim.client import HttpClient
    results: list = []
    HttpClient(victim).get(f"http://{EVIL_IP}/file.tgz", results.append)
    scenario.sim.run_for(30.0)
    passthrough_ok = bool(results and results[0] is not None
                          and results[0].status == 200
                          and scenario.rogue.netsed.connections_proxied == 0)
    return {"rows": rows, "no_rule_match_passthrough": passthrough_ok}


# ----------------------------------------------------------------------
# FIG3 — VPN through the compromised wireless network
# ----------------------------------------------------------------------

def fig3_vpn_proxy(seed: int = 1) -> dict:
    """Reproduce Figure 3: the same attack against a VPN'd client."""
    rows = []
    for arm, use_vpn in (("bare client", False), ("VPN client", True)):
        scenario = build_corp_scenario(seed=seed)
        scenario.arm_download_mitm()
        victim = scenario.add_victim()
        scenario.sim.run_for(5.0)
        on_rogue = victim.associated_channel == 6
        if use_vpn:
            vpn = scenario.connect_vpn(victim)
            scenario.sim.run_for(5.0)
        outcome = scenario.run_download_experiment(victim, settle_s=90.0)
        rows.append({
            "arm": arm,
            "on_rogue": on_rogue,
            "vpn_connected": use_vpn and vpn.connected,
            "md5_check_passed": outcome.md5_ok,
            "compromised": outcome.compromised,
            "netsed_saw_flows": scenario.rogue.netsed.connections_proxied,
            "tunnelled_packets": vpn.packets_tunnelled if use_vpn else 0,
        })
    return {"rows": rows}


# ----------------------------------------------------------------------
# E-WEP — WEP provides no protection against the rogue
# ----------------------------------------------------------------------

#: Most 1 s rounds of a bystander's weak-IV traffic that E-WEP's
#: outsider sniffs before giving up; one round (400 weak IVs) suffices.
AIRSNORT_ROUNDS = 10


def _airsnort_key(scenario) -> Optional[WepKey]:
    """§4's outsider: sniff a bystander's WEP traffic and crack the key.

    Airsnort checks each candidate against captured frames' ICVs; the
    result is ``None`` if no candidate passes within the rounds.
    """
    sim = scenario.sim
    sniffer = MonitorSniffer(sim, scenario.medium, Position(20.0, 5.0))
    bystander = scenario.add_victim(position=Position(12.0, 0.0),
                                    ip="10.0.0.40", name="bystander")
    sim.run_for(5.0)
    bystander.wlan.iv_gen = WeakIvSweep()
    pump = WepTrafficPump(bystander, GATEWAY_IP, rate_pps=400.0)
    pump.start()
    attack = AirsnortAttack(sniffer)
    key = None
    for _ in range(AIRSNORT_ROUNDS):
        sim.run_for(1.0)
        key = attack.crack()
        if key is not None:
            break
    pump.stop()
    sniffer.stop()
    return key


def exp_wep_no_protection(seed: int = 1) -> dict:
    rows = []
    for arm, wep, cracked in (
        ("open network", False, False),
        ("WEP, rogue is valid client", True, False),
        ("WEP, rogue cracked key (FMS)", True, True),
    ):
        scenario = build_corp_scenario(seed=seed, wep=wep,
                                       with_rogue=not cracked)
        if cracked:
            # The outsider holds only the key Airsnort recovered.
            scenario.add_rogue(_airsnort_key(scenario))
            scenario.sim.run_for(4.0)
        victim = scenario.add_victim()
        scenario.sim.run_for(5.0)
        scenario.arm_download_mitm()
        outcome = scenario.run_download_experiment(victim)
        rows.append({
            "arm": arm,
            "victim_on_rogue": victim.associated_channel == 6,
            "compromised": outcome.compromised,
        })
    return {"rows": rows}


# ----------------------------------------------------------------------
# E-MAC — MAC filtering keeps honest people honest
# ----------------------------------------------------------------------

def exp_mac_filtering(seed: int = 1) -> dict:
    scenario = build_corp_scenario(seed=seed, with_rogue=False, wep=False)
    victim = scenario.add_victim()
    scenario.ap.core.mac_filter.allow(victim.wlan.mac)
    scenario.sim.run_for(5.0)

    honest = Station(scenario.sim, "honest-outsider", scenario.medium,
                     Position(12, 0))
    honest.connect("CORP", ip="10.0.0.50")
    scenario.sim.run_for(6.0)
    honest_admitted = honest.wlan.associated
    honest.wlan.leave()

    sniffer = MonitorSniffer(scenario.sim, scenario.medium, Position(12, 2))
    victim.ping("10.0.0.1")
    scenario.sim.run_for(3.0)
    harvested = observe_client_macs(sniffer, bssid=scenario.ap.bssid)

    spoofer = Station(scenario.sim, "spoofing-outsider", scenario.medium,
                      Position(12, -2))
    harvested_ok = victim.wlan.mac in harvested
    if harvested_ok:
        spoof_mac(spoofer.wlan, harvested[0])
    spoofer.connect("CORP", ip="10.0.0.51")
    scenario.sim.run_for(8.0)
    return {"rows": [
        {"attacker": "honest outsider (own MAC)", "admitted": honest_admitted,
         "denials_logged": scenario.ap.core.mac_filter.denials},
        {"attacker": "sniff + spoof valid MAC", "admitted": spoofer.wlan.associated,
         "harvested_valid_mac": harvested_ok},
    ]}


# ----------------------------------------------------------------------
# E-FMS — Airsnort key-recovery economics
# ----------------------------------------------------------------------

def exp_airsnort_curve(trials: int = 5) -> dict:
    """Recovery probability vs weak-IV samples per key byte.

    Context row included: a sequential-IV card yields one weak IV per
    ~65k frames per byte class, so N samples/byte ≈ N × 65k sniffed
    frames — the "5-10 million packets" folklore falls out.
    """
    rows = []
    for bits, key_length in ((40, 5), (104, 13)):
        # 256 is the whole classic weak-IV class per byte: the axis cap.
        for samples_per_byte in (10, 20, 40, 80, 160, 256):
            def trial(seed: int) -> float:
                rng = SimRandom(seed)
                key = WepKey(rng.bytes(key_length))
                attack = FmsAttack(key_length=key_length)
                xs = rng.sample(range(256), min(samples_per_byte, 256))
                for a in range(key_length):
                    for x in xs:
                        iv = weak_iv_for(a, x)
                        attack.add_sample(
                            iv, rc4_keystream(key.per_packet_key(iv), 1)[0])
                recovered = attack.recover(
                    verifier=lambda k: k == key.key, search_width=4)
                return 1.0 if recovered == key.key else 0.0

            stats = run_trials(trials, trial, seed_base=7000 + bits + samples_per_byte)
            rows.append({
                "key_bits": bits,
                "weak_ivs_per_byte": samples_per_byte,
                "approx_sniffed_frames": samples_per_byte * 65536,
                "recovery_rate": stats.rate,
            })
    return {"rows": rows}


# ----------------------------------------------------------------------
# E-DEAUTH — forcing the victim onto the rogue
# ----------------------------------------------------------------------

def exp_deauth_capture(trials: int = 3, horizon_s: float = 60.0) -> dict:
    """Geometry: the rogue is parked far enough (30 m) that the victim
    needs *accumulated* deauth penalties before its selection flips —
    so the injection rate shows through in time-to-capture."""
    rows = []
    for rate_hz, targeted in ((0.0, True), (0.05, True), (0.2, True),
                              (1.0, True), (10.0, True), (10.0, False)):
        captured = TrialStats()
        times = TrialStats()

        def trial(seed: int) -> float:
            scenario = build_corp_scenario(seed=seed,
                                           rogue_position=Position(30.0, 0.0))
            victim = scenario.add_victim(position=Position(6.0, 0.0))
            scenario.sim.run_for(5.0)
            if victim.associated_channel != 1:
                return 1.0  # already on the rogue (rare at this geometry)
            attacker = None
            if rate_hz > 0:
                attacker = DeauthAttacker(
                    scenario.sim, scenario.medium, Position(6.0, 2.0),
                    ap_bssid=scenario.ap.bssid, channel=1,
                    target=victim.wlan.mac if targeted else None,
                    rate_hz=rate_hz)
                attacker.start()
            start = scenario.sim.now
            hit = 0.0
            for _ in range(int(horizon_s)):
                scenario.sim.run_for(1.0)
                if victim.associated_channel == 6:
                    times.add(scenario.sim.now - start)
                    hit = 1.0
                    break
            if attacker:
                attacker.stop()
            return hit

        stats = run_trials(trials, trial,
                           seed_base=8000 + int(rate_hz * 10) + int(targeted))
        rows.append({
            "deauth_rate_hz": rate_hz,
            "targeted": targeted,
            "capture_rate": stats.rate,
            "mean_time_to_capture_s": round(times.mean, 1) if times.n else None,
        })
    return {"rows": rows}


# ----------------------------------------------------------------------
# E-NETSED — the packet-boundary limitation
# ----------------------------------------------------------------------

def exp_netsed_boundaries(trials: int = 200) -> dict:
    """Hit rate vs segment size, per-segment vs streaming rewriter.

    The stream is cut at uniformly random offsets into ``mss``-sized
    chunks with the 13-byte pattern (``href=file.tgz``) at a random
    position — the distribution a real capture presents.
    """
    pattern = b"href=file.tgz"
    rows = []
    for mss in (4, 8, 16, 32, 64, 128, 256, 1460):
        for streaming in (False, True):
            rng = SimRandom(9000 + mss + int(streaming))
            hits = 0
            for _ in range(trials):
                pad_front = rng.randint(0, 200)
                stream = (bytes(rng.randint(97, 122) for _ in range(pad_front))
                          + pattern
                          + bytes(rng.randint(97, 122) for _ in range(100)))
                rules = [NetsedRule(pattern, b"X" * len(pattern))]
                rw = StreamingRewriter(rules) if streaming else _PerSegmentRewriter(rules)
                out = b""
                for off in range(0, len(stream), mss):
                    out += rw.process(stream[off:off + mss])
                out += rw.flush()
                if pattern not in out:
                    hits += 1
            rows.append({
                "segment_size": mss,
                "rewriter": "streaming" if streaming else "per-segment (netsed)",
                "hit_rate": hits / trials,
            })
    return {"rows": rows, "pattern_len": len(pattern)}


# ----------------------------------------------------------------------
# E-WIRED — eavesdropping and MITM prerequisites, wired vs wireless
# ----------------------------------------------------------------------

def exp_wired_vs_wireless(seed: int = 1) -> dict:
    """§1.1/§1.2 quantified: what a passive attacker overhears on each
    fabric, and which MITM paths were executable with what access."""
    from repro.attacks.dns_spoof import DnsSpoofer
    from repro.attacks.wired_mitm import wired_vs_wireless_paths
    from repro.hosts.services import DnsResolver
    from repro.netstack.addressing import IPv4Address

    sniff_rows = []
    # Wired: victim sends 50 datagrams to the gateway-side server; how
    # many does a promiscuous bystander port capture?
    for fabric in ("switch", "hub"):
        office = build_wired_office(seed=seed, fabric=fabric)
        cap = office.attacker.enable_capture()
        office.attacker.l2_tap = lambda iface, s, d, et, p: None  # promiscuous on
        sock = office.victim.udp_socket()
        # Teach the switch the server's port first.
        office.victim.ping(TARGET_IP)
        office.sim.run_for(1.0)
        seen_before = cap.count(src=IPv4Address("10.0.0.23"))
        # The tap counts L2 frames; use a dedicated counter.
        overheard = {"n": 0}

        def tap(iface, smac, dmac, ethertype, payload, _o=overheard):
            if ethertype == 0x0800 and payload[12:16] == IPv4Address("10.0.0.23").bytes:
                _o["n"] += 1

        office.attacker.l2_tap = tap
        for i in range(50):
            sock.sendto(b"confidential-%d" % i, TARGET_IP, 9999)
        office.sim.run_for(5.0)
        sniff_rows.append({
            "medium": f"wired ({fabric})",
            "victim_datagrams": 50,
            "overheard": overheard["n"],
        })
    # Wireless: same victim workload on the open-air corp WLAN.
    scenario = build_corp_scenario(seed=seed, with_rogue=False, wep=False)
    sniffer = MonitorSniffer(scenario.sim, scenario.medium, Position(20.0, 5.0))
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    sock = victim.udp_socket()
    for i in range(50):
        sock.sendto(b"confidential-%d" % i, TARGET_IP, 9999)
    scenario.sim.run_for(5.0)
    overheard_air = sum(
        1 for _, et, payload in sniffer.decrypted_payloads(
            WepKey(b"XXXXX"))  # key unused for open network
        if b"confidential-" in payload
    )
    # decrypted_payloads with a key on an OPEN network: protected=False
    # frames pass straight through, so the count is genuine.
    sniff_rows.append({
        "medium": "wireless (open air)",
        "victim_datagrams": 50,
        "overheard": overheard_air,
    })

    # DNS-spoof executability.
    dns_rows = []
    for fabric in ("hub", "switch"):
        office = build_wired_office(seed=seed + 3, fabric=fabric)
        resolver = DnsResolver(office.victim, "10.0.0.53")
        if fabric == "switch":
            office.victim.ping("10.0.0.66")
            office.victim.ping("10.0.0.53")
            office.sim.run_for(2.0)
        spoofer = DnsSpoofer(office.attacker, "eth0",
                             lies={"downloads.example.com": "10.0.0.66"})
        spoofer.arm()
        answers: list = []
        resolver.resolve("downloads.example.com", answers.append)
        office.sim.run_for(5.0)
        dns_rows.append({
            "fabric": fabric,
            "queries_visible": spoofer.queries_seen,
            "spoof_won": bool(answers and answers[0] == IPv4Address("10.0.0.66")),
        })

    taxonomy_rows = [{
        "path": p.name, "medium": p.medium, "steps": p.step_count,
        "access_required": p.access_required,
    } for p in wired_vs_wireless_paths()]
    return {"sniffing": sniff_rows, "dns_spoof": dns_rows,
            "mitm_paths": taxonomy_rows}


# ----------------------------------------------------------------------
# E-VPNOH — UDP over the TCP tunnel: the §5.3 drawback
# ----------------------------------------------------------------------

def exp_vpn_overhead(loss_rates=(0.0, 0.05, 0.10, 0.20),
                     duration_s: float = 20.0, rate_pps: float = 40.0) -> dict:
    """CBR UDP through nothing / PPP-over-SSH (TCP) / ESP (UDP) as the
    radio loses frames.  Shape: the TCP tunnel's latency and backlog
    explode with loss (TCP-over-TCP meltdown); the UDP tunnel tracks
    native behaviour."""
    from repro.defense.ipsec import EspTunnelClient, EspTunnelServer

    rows = []
    for loss in loss_rates:
        for transport in ("native", "ppp-ssh (tcp)", "esp (udp)"):
            scenario = build_corp_scenario(seed=1313, with_rogue=False)
            scenario.medium.loss_model.extra_loss = loss
            victim = scenario.add_victim()
            scenario.sim.run_for(6.0)
            if not victim.wlan.associated:
                # Heavy loss can stall association; retry window.
                scenario.sim.run_for(20.0)
            vpn = None
            if transport == "ppp-ssh (tcp)":
                vpn = scenario.connect_vpn(victim)
                scenario.sim.run_for(10.0)
                if not vpn.connected:
                    rows.append({"radio_loss": loss, "transport": transport,
                                 "delivery": 0.0, "p50_ms": None,
                                 "p95_ms": None, "note": "tunnel never established"})
                    continue
            elif transport == "esp (udp)":
                EspTunnelServer(scenario.vpn_host, b"esp-bench",
                                server_inner_ip="10.9.0.1", nat_ip=VPN_IP)
                EspTunnelClient(victim, VPN_IP, b"esp-bench",
                                inner_ip="10.9.0.100", server_inner_ip="10.9.0.1")
                scenario.sim.run_for(2.0)
            stream = CbrUdpStream(victim, scenario.target_server, TARGET_IP,
                                  port=9050, rate_pps=rate_pps)
            stream.start(duration_s=duration_s)
            scenario.sim.run_for(duration_s + 40.0)  # drain queues
            stream.stop()
            rows.append({
                "radio_loss": loss,
                "transport": transport,
                "delivery": round(stream.delivery_ratio, 3),
                "p50_ms": round(stream.latency_quantile(0.5) * 1000, 1)
                          if stream.latencies_s else None,
                "p95_ms": round(stream.latency_quantile(0.95) * 1000, 1)
                          if stream.latencies_s else None,
                "note": "",
            })
    return {"rows": rows}


# ----------------------------------------------------------------------
# E-DETECT — sequence-control monitoring
# ----------------------------------------------------------------------

def exp_rogue_detection(trials: int = 4, observe_s: float = 20.0) -> dict:
    rows = []
    for gap_threshold in (16, 64, 256):
        def tpr_trial(seed: int) -> float:
            scenario = build_corp_scenario(seed=seed)
            sniffer = MonitorSniffer(scenario.sim, scenario.medium,
                                     Position(15.0, 5.0))
            scenario.sim.run_for(observe_s)
            verdict = SeqCtlMonitor(sniffer.capture,
                                    gap_threshold=gap_threshold
                                    ).analyze_transmitter(scenario.ap.bssid)
            return 1.0 if verdict.spoofed else 0.0

        def fpr_trial(seed: int) -> float:
            scenario = build_corp_scenario(seed=seed, with_rogue=False)
            sniffer = MonitorSniffer(scenario.sim, scenario.medium,
                                     Position(15.0, 5.0))
            victim = scenario.add_victim()
            scenario.sim.run_for(observe_s)
            return 1.0 if SeqCtlMonitor(
                sniffer.capture, gap_threshold=gap_threshold).flagged() else 0.0

        tpr = run_trials(trials, tpr_trial, seed_base=14000 + gap_threshold)
        fpr = run_trials(trials, fpr_trial, seed_base=15000 + gap_threshold)
        rows.append({
            "gap_threshold": gap_threshold,
            "true_positive_rate": tpr.rate,
            "false_positive_rate": fpr.rate,
        })
    return {"rows": rows}


# ----------------------------------------------------------------------
# E-PROM — network promiscuity
# ----------------------------------------------------------------------

def exp_network_promiscuity(stage1_seeds=(1, 2, 3), chain_trials: int = 3000) -> dict:
    """Stage 1: measure the per-hostile-visit compromise probability in
    the full hotspot simulation.  Stage 2: sample roaming chains."""
    from repro.workloads.roaming import simulate_roaming_client

    # Stage 1 (full fidelity): unpatched browser visits the news site
    # through a hostile hotspot.
    compromised = 0
    for seed in stage1_seeds:
        world = build_hotspot_scenario(seed=seed, hostile=True)
        station, browser = world.add_visitor(patched=False)
        browser.visit("http://news.example.com/index.html")
        world.sim.run_for(40.0)
        compromised += int(browser.compromised)
    s_measured = compromised / len(stage1_seeds)

    rows = []
    rng = SimRandom(16000)
    for p in (0.1, 0.3):
        for domains in (1, 3, 5, 10, 20):
            hits = sum(
                simulate_roaming_client(
                    rng, domains=domains, hostile_fraction=p,
                    per_visit_compromise_prob=s_measured).compromised
                for _ in range(chain_trials))
            analytic = 1 - (1 - p * s_measured) ** domains
            rows.append({
                "hostile_fraction": p,
                "domains_visited": domains,
                "p_compromised_no_vpn": round(hits / chain_trials, 3),
                "analytic": round(analytic, 3),
                "p_compromised_always_on_vpn": 0.0,  # measured by FIG3/E-CNN
            })
    return {"rows": rows, "per_visit_compromise_prob": s_measured}


# ----------------------------------------------------------------------
# E-CNN — the trusted-website scenario
# ----------------------------------------------------------------------

def exp_trusted_website(seed: int = 1) -> dict:
    rows = []
    for arm, hostile, patched in (
        ("honest hotspot, unpatched", False, False),
        ("hostile hotspot, unpatched", True, False),
        ("hostile hotspot, patched", True, True),
    ):
        world = build_hotspot_scenario(seed=seed, hostile=hostile)
        station, browser = world.add_visitor(patched=patched)
        visit = browser.visit("http://news.example.com/index.html")
        world.sim.run_for(40.0)
        rows.append({
            "arm": arm,
            "page_loaded": visit.status == 200,
            "tampered_in_flight": world.hotspot.tampered_segments > 0,
            "exploit_executed": visit.exploit_executed,
            "compromised": browser.compromised,
        })
    return {"rows": rows}


# ----------------------------------------------------------------------
# E-8021X — 802.1X and WPA still admit the right rogue
# ----------------------------------------------------------------------

def _wpa_rogue_captures(seed: int, psk: bytes, rogue_psk: bytes) -> bool:
    """A WPA-PSK BSS on channel 1 and an evil twin of it (cloned BSSID,
    ``rogue_psk``) on channel 6, nearer the client: does the client
    complete the 4-way handshake with the twin?"""
    from repro.hosts.access_point import AccessPoint
    from repro.radio.medium import Medium
    from repro.sim.kernel import Simulator

    sim = Simulator(seed=seed)
    medium = Medium(sim)
    AccessPoint(sim, medium, "corp-ap", bssid=LEGIT_BSSID, ssid="CORP",
                channel=1, position=Position(0.0, 0.0), wpa_psk=psk)
    rogue = AccessPoint(sim, medium, "rogue", bssid=LEGIT_BSSID, ssid="CORP",
                        channel=6, position=Position(18.0, 0.0),
                        wpa_psk=rogue_psk)
    client = Station(sim, "client", medium, Position(16.0, 0.0))
    client.connect("CORP", wpa_psk=psk)
    sim.run_for(10.0)
    return rogue.core.wpa_established(client.wlan.mac)


def exp_dot1x_wpa_gap(seed: int = 1) -> dict:
    from repro.crypto.wpa_kdf import psk_from_passphrase
    from repro.defense.dot1x import Dot1xAuthenticator, Dot1xSupplicant, EapAuthServer

    rng = SimRandom(seed)
    rows = []

    server = EapAuthServer({"alice": b"pw"}, rng.substream("eap"))
    supplicant = Dot1xSupplicant("alice", b"pw")
    legit = Dot1xAuthenticator(server)
    rows.append({"network": "802.1X legitimate AP", "attacker_holds": "n/a",
                 "client_accepts_network": legit.authenticate(supplicant),
                 "network_authenticated_to_client": False})

    rogue_supplicant = Dot1xSupplicant("alice", b"pw")
    rogue = Dot1xAuthenticator(None, rogue=True)
    rows.append({"network": "802.1X ROGUE AP (no server)", "attacker_holds": "nothing",
                 "client_accepts_network": rogue.authenticate(rogue_supplicant),
                 "network_authenticated_to_client": False})

    # §2.2's WPA rows, over the air: message 3 proves the network holds
    # the PSK, so an outsider's guess fails it and a valid client's
    # rogue passes.
    psk = psk_from_passphrase("office-psk", "CORP")
    rows.append({"network": "WPA-PSK ROGUE, outsider", "attacker_holds": "no PSK",
                 "client_accepts_network": _wpa_rogue_captures(
                     seed, psk, psk_from_passphrase("guess", "CORP")),
                 "network_authenticated_to_client": True})
    rows.append({"network": "WPA-PSK ROGUE, valid client", "attacker_holds": "the PSK",
                 "client_accepts_network": _wpa_rogue_captures(seed, psk, psk),
                 "network_authenticated_to_client": True})
    return {"rows": rows}


# ----------------------------------------------------------------------
# X-PATH — extension: victim-side first-hop rogue detection
# ----------------------------------------------------------------------

def exp_first_hop_detection(trials: int = 4) -> dict:
    """TTL=1 probe detection rates: rogue present vs clean network.

    Extension experiment (not a paper figure): the parprouted rogue
    routes, so it decrements TTL; the victim's first-hop probe exposes
    it.  Measured as TPR (rogue named by its own TIME_EXCEEDED) and FPR
    (clean network flagged).
    """
    from repro.defense.pathcheck import check_first_hop

    def tpr_trial(seed: int) -> float:
        scenario = build_corp_scenario(seed=seed)
        victim = scenario.add_victim()
        scenario.sim.run_for(5.0)
        if victim.associated_channel != 6:
            return 0.0  # not captured: nothing to detect (counts against TPR)
        results: list = []
        check_first_hop(victim, "10.0.0.1", results.append)
        scenario.sim.run_for(5.0)
        return 1.0 if results and results[0].interloper is not None else 0.0

    def fpr_trial(seed: int) -> float:
        scenario = build_corp_scenario(seed=seed, with_rogue=False)
        victim = scenario.add_victim()
        scenario.sim.run_for(5.0)
        results: list = []
        check_first_hop(victim, "10.0.0.1", results.append)
        scenario.sim.run_for(5.0)
        return 1.0 if results and results[0].suspicious else 0.0

    tpr = run_trials(trials, tpr_trial, seed_base=17000)
    fpr = run_trials(trials, fpr_trial, seed_base=18000)
    return {"rows": [
        {"network": "rogue in path", "probe_flags_rogue": tpr.rate,
         "interloper_named": True},
        {"network": "clean", "probe_flags_rogue": fpr.rate,
         "interloper_named": False},
    ]}


# ----------------------------------------------------------------------
# X-CONTAIN — extension: active containment effectiveness
# ----------------------------------------------------------------------

def exp_containment(trials: int = 3, horizon_s: float = 60.0) -> dict:
    """Victim eviction time vs containment injection rate.

    Extension experiment (§6's "countering" future work): the WIDS
    sensor deauths the rogue BSS; faster injection evicts captured
    victims sooner and holds them on the legitimate AP.
    """
    from repro.defense.containment import ContainmentSensor

    rows = []
    for rate_hz in (0.0, 2.0, 10.0):
        evictions = TrialStats()
        times = TrialStats()

        def trial(seed: int) -> float:
            scenario = build_corp_scenario(seed=seed)
            victim = scenario.add_victim()
            scenario.sim.run_for(5.0)
            if victim.associated_channel != 6:
                return 0.0
            sensor = None
            if rate_hz > 0:
                sensor = ContainmentSensor(
                    scenario.sim, scenario.medium, Position(35.0, 5.0),
                    authorized=[(scenario.ap.bssid, 1)],
                    containment_rate_hz=rate_hz)
                sensor.start()
            start = scenario.sim.now
            evicted = 0.0
            for _ in range(int(horizon_s)):
                scenario.sim.run_for(1.0)
                if victim.associated_channel == 1:
                    times.add(scenario.sim.now - start)
                    evicted = 1.0
                    break
            if sensor:
                sensor.stop()
            return evicted

        stats = run_trials(trials, trial, seed_base=19000 + int(rate_hz * 10))
        rows.append({
            "containment_rate_hz": rate_hz,
            "eviction_rate": stats.rate,
            "mean_time_to_evict_s": round(times.mean, 1) if times.n else None,
        })
    return {"rows": rows}
