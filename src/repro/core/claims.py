"""The paper's claims as pass/fail checks on each experiment's result.

The paper states no numeric tables.  Its results are *shapes*: the
rogue captures the victim (Fig. 1), the MD5 check passes on the trojan
(Fig. 2), the VPN makes the hostile segment irrelevant (Fig. 3, §5),
the TCP tunnel melts down under loss (§5.3).  Each function below maps
one registered experiment's result dict to named :class:`Claim`\\ s,
each with a one-line detail of the values it read.  The registry
attaches them to their experiment (``ExperimentSpec.claims``);
``python -m repro run`` prints them and exits 1 when one fails, and the
tier-1 goldens test checks them on every pinned run.

Every claim is built at one literal ``Claim(`` site, with any per-row
check folded into one ``all(...)``, so a function's claim count is
read from its source (:func:`claim_count`) without running anything.
"""

from __future__ import annotations

import inspect
import math
from typing import Callable, NamedTuple

__all__ = ["Claim", "claim_count"]


class Claim(NamedTuple):
    """One checked shape of a result: its name, verdict and evidence."""

    name: str
    ok: bool
    detail: str


def claim_count(claims: Callable[[dict], list]) -> int:
    """How many claims ``claims`` returns, read from its source."""
    return inspect.getsource(claims).count("Claim(")


def _ms(value):
    """A latency that may be missing; NaN fails every comparison."""
    return math.nan if value is None else value


def _rising(values, slack: float) -> bool:
    """True when no value falls below its predecessor by more than ``slack``."""
    return all(a <= b + slack for a, b in zip(values, values[1:]))


def fig1(result: dict) -> list:
    stock = next(r for r in result["rows"] if r["policy"] == "strongest-rssi")
    return [
        Claim("rogue associates upstream as a valid client",
              bool(stock["rogue_upstream_associated"]),
              f"rogue_upstream_associated={stock['rogue_upstream_associated']}"),
        Claim("strongest-RSSI victim lands on the rogue's channel",
              stock["victim_channel"] == 6,
              f"victim_channel={stock['victim_channel']} (rogue: 6)"),
        Claim("victim associates to the cloned BSSID",
              bool(stock["victim_bssid_cloned"]),
              f"victim_bssid_cloned={stock['victim_bssid_cloned']}"),
        Claim("victim is captured by the rogue",
              bool(stock["captured_by_rogue"]),
              f"captured_by_rogue={stock['captured_by_rogue']}"),
        Claim("bridge is transparent: gateway and WAN reachable",
              bool(stock["gateway_reachable"] and stock["wan_reachable"]),
              f"gateway_reachable={stock['gateway_reachable']}, "
              f"wan_reachable={stock['wan_reachable']}"),
        Claim("bridge RTT < 50 ms",
              _ms(stock["bridge_rtt_ms"]) < 50,
              f"bridge_rtt_ms={stock['bridge_rtt_ms']}"),
    ]


def fig2(result: dict) -> list:
    rows = result["rows"]
    control = next(r for r in rows if "control" in r["arm"])
    attacked = next(r for r in rows if "netsed" in r["arm"])
    return [
        Claim("control arm is not compromised",
              not control["compromised"],
              f"control compromised={control['compromised']}"),
        Claim("control arm: MD5 check passes on the genuine file",
              bool(control["md5_check_passed"] and not control["trojaned"]),
              f"control md5_check_passed={control['md5_check_passed']}, "
              f"trojaned={control['trojaned']}"),
        Claim("netsed rewrites the download link",
              bool(attacked["link_rewritten"]),
              f"link_rewritten={attacked['link_rewritten']}"),
        Claim("MD5 check passes on the trojan",
              bool(attacked["md5_check_passed"]),
              f"md5_check_passed={attacked['md5_check_passed']}"),
        Claim("the trojan runs: victim compromised",
              bool(attacked["trojaned"] and attacked["compromised"]),
              f"trojaned={attacked['trojaned']}, "
              f"compromised={attacked['compromised']}"),
        Claim(">= 2 netsed replacements (link and MD5SUM)",
              attacked["netsed_replacements"] >= 2,
              f"netsed_replacements={attacked['netsed_replacements']}"),
        Claim("off-target port-80 traffic passes untouched (No Rule Match)",
              bool(result["no_rule_match_passthrough"]),
              f"no_rule_match_passthrough="
              f"{result['no_rule_match_passthrough']}"),
    ]


def fig3(result: dict) -> list:
    rows = result["rows"]
    bare = next(r for r in rows if r["arm"] == "bare client")
    vpn = next(r for r in rows if r["arm"] == "VPN client")
    return [
        Claim("both clients are captured by the rogue at L2",
              bool(bare["on_rogue"] and vpn["on_rogue"]),
              f"bare on_rogue={bare['on_rogue']}, "
              f"VPN on_rogue={vpn['on_rogue']}"),
        Claim("bare client is compromised",
              bool(bare["compromised"]),
              f"bare compromised={bare['compromised']}"),
        Claim("netsed sees the bare client's flows",
              bare["netsed_saw_flows"] >= 1,
              f"bare netsed_saw_flows={bare['netsed_saw_flows']}"),
        Claim("VPN connects through the rogue",
              bool(vpn["vpn_connected"]),
              f"vpn_connected={vpn['vpn_connected']}"),
        Claim("VPN client is not compromised",
              not vpn["compromised"],
              f"VPN compromised={vpn['compromised']}"),
        Claim("netsed sees no flow from the VPN client",
              vpn["netsed_saw_flows"] == 0,
              f"VPN netsed_saw_flows={vpn['netsed_saw_flows']}"),
        Claim("VPN client's traffic is tunnelled",
              vpn["tunnelled_packets"] > 0,
              f"tunnelled_packets={vpn['tunnelled_packets']}"),
    ]


def wep_no_protection(result: dict) -> list:
    rows = result["rows"]
    return [
        Claim("three WEP arms", len(rows) == 3, f"{len(rows)} rows"),
        Claim("victim lands on the rogue in every arm",
              all(r["victim_on_rogue"] for r in rows),
              ", ".join(f"{r['arm']}: {r['victim_on_rogue']}" for r in rows)),
        Claim("victim is compromised in every arm",
              all(r["compromised"] for r in rows),
              ", ".join(f"{r['arm']}: {r['compromised']}" for r in rows)),
    ]


def mac_filtering(result: dict) -> list:
    rows = result["rows"]
    honest = next(r for r in rows if "honest" in r["attacker"])
    spoof = next(r for r in rows if "spoof" in r["attacker"])
    return [
        Claim("honest outsider is denied",
              not honest["admitted"], f"admitted={honest['admitted']}"),
        Claim("the denial is logged",
              honest["denials_logged"] >= 1,
              f"denials_logged={honest['denials_logged']}"),
        Claim("sniffing harvests a valid MAC",
              bool(spoof["harvested_valid_mac"]),
              f"harvested_valid_mac={spoof['harvested_valid_mac']}"),
        Claim("spoofing outsider is admitted",
              bool(spoof["admitted"]), f"admitted={spoof['admitted']}"),
    ]


def airsnort_curve(result: dict) -> list:
    rows = result["rows"]
    rates = {bits: [r["recovery_rate"] for r in rows if r["key_bits"] == bits]
             for bits in (40, 104)}
    pairs = [(r40, r104) for r40 in rows if r40["key_bits"] == 40
             for r104 in rows if r104["key_bits"] == 104
             and r104["weak_ivs_per_byte"] == r40["weak_ivs_per_byte"]]
    return [
        Claim("recovery rate never falls as the weak-IV budget grows",
              all(_rising(curve, 1e-9) for curve in rates.values()),
              "; ".join(f"{bits}-bit {curve}" for bits, curve in rates.items())),
        Claim("the smallest budget does not always suffice",
              all(curve[0] < 1.0 for curve in rates.values()),
              ", ".join(f"{bits}-bit {curve[0]}"
                        for bits, curve in rates.items())),
        Claim("40-bit keys always fall at the largest budget",
              rates[40][-1] == 1.0, f"40-bit {rates[40][-1]}"),
        Claim("104-bit keys mostly fall at the largest budget (>= 0.5)",
              rates[104][-1] >= 0.5, f"104-bit {rates[104][-1]}"),
        Claim("104-bit is never easier than 40-bit at equal per-byte budget",
              all(r104["recovery_rate"] <= r40["recovery_rate"] + 1e-9
                  for r40, r104 in pairs),
              f"{len(pairs)} budgets compared"),
    ]


def deauth_capture(result: dict) -> list:
    rows = result["rows"]
    baseline = next(r for r in rows if r["deauth_rate_hz"] == 0.0)
    targeted = sorted((r for r in rows
                       if r["targeted"] and r["deauth_rate_hz"] > 0),
                      key=lambda r: r["deauth_rate_hz"])
    rates = [r["capture_rate"] for r in targeted]
    fastest = targeted[-1]
    slower_times = [r["mean_time_to_capture_s"] for r in targeted[:-1]
                    if r["mean_time_to_capture_s"] is not None]
    comparable = bool(slower_times) \
        and fastest["mean_time_to_capture_s"] is not None
    fast_targeted = next(r for r in rows if r["deauth_rate_hz"] == 10.0
                         and r["targeted"])
    broadcast = next(r for r in rows if not r["targeted"])
    return [
        Claim("no injection, no capture",
              baseline["capture_rate"] == 0.0,
              f"capture_rate={baseline['capture_rate']} at 0 Hz"),
        Claim("capture rate never falls as the deauth rate grows",
              _rising(rates, 1e-9), f"targeted capture rates {rates}"),
        Claim("the fastest targeted storm always captures",
              rates[-1] == 1.0,
              f"{rates[-1]} at {fastest['deauth_rate_hz']} Hz"),
        Claim("faster injection captures no later",
              not comparable or fastest["mean_time_to_capture_s"]
              <= max(slower_times),
              f"fastest {fastest['mean_time_to_capture_s']} s vs slower "
              f"{slower_times}" if comparable
              else "no slower rate captured: nothing to compare"),
        Claim("targeted deauth is at least as effective as broadcast",
              fast_targeted["capture_rate"]
              >= broadcast["capture_rate"] - 1e-9,
              f"targeted 10 Hz {fast_targeted['capture_rate']} vs "
              f"broadcast {broadcast['capture_rate']}"),
    ]


def netsed_boundaries(result: dict) -> list:
    rows = result["rows"]
    pattern_len = result["pattern_len"]
    per_seg = sorted((r for r in rows if "netsed" in r["rewriter"]),
                     key=lambda r: r["segment_size"])
    stream = [r for r in rows if r["rewriter"] == "streaming"]
    short = [r["hit_rate"] for r in per_seg
             if r["segment_size"] < pattern_len]
    rates = [r["hit_rate"] for r in per_seg]
    mid = next(r for r in per_seg if r["segment_size"] == 64)
    expected = 1 - (pattern_len - 1) / 64
    return [
        Claim("the streaming rewriter hits at every segment size",
              all(r["hit_rate"] == 1.0 for r in stream),
              f"streaming {[r['hit_rate'] for r in stream]}"),
        Claim("per-segment netsed never hits below the pattern length",
              all(rate == 0.0 for rate in short),
              f"{short} below {pattern_len} bytes"),
        Claim("per-segment hit rate rises with segment size",
              _rising(rates, 0.07), f"per-segment {rates}"),
        Claim("a 1460-byte MSS nearly always hits (> 0.98)",
              per_seg[-1]["hit_rate"] > 0.98,
              f"{per_seg[-1]['hit_rate']} at {per_seg[-1]['segment_size']} B"),
        Claim("hit rate at 64 B matches 1 - (L-1)/64 within 0.1",
              abs(mid["hit_rate"] - expected) < 0.1,
              f"{mid['hit_rate']} vs analytic {expected:.3f}"),
    ]


def wired_vs_wireless(result: dict) -> list:
    by_medium = {r["medium"]: r["overheard"] for r in result["sniffing"]}
    dns = {r["fabric"]: r for r in result["dns_spoof"]}
    wireless_steps = [p["steps"] for p in result["mitm_paths"]
                      if p["medium"] == "wireless"]
    return [
        Claim("a switched LAN leaks almost nothing (<= 2 frames)",
              by_medium["wired (switch)"] <= 2,
              f"switch overheard {by_medium['wired (switch)']}"),
        Claim("a hub leaks everything (>= 45 frames)",
              by_medium["wired (hub)"] >= 45,
              f"hub overheard {by_medium['wired (hub)']}"),
        Claim("the open air leaks everything (>= 45 frames)",
              by_medium["wireless (open air)"] >= 45,
              f"open air overheard {by_medium['wireless (open air)']}"),
        Claim("DNS spoofing wins on a hub",
              bool(dns["hub"]["spoof_won"]),
              f"hub spoof_won={dns['hub']['spoof_won']}"),
        Claim("DNS spoofing loses on a switch",
              not dns["switch"]["spoof_won"],
              f"switch spoof_won={dns['switch']['spoof_won']}"),
        Claim("a switch shows the bystander no query",
              dns["switch"]["queries_visible"] == 0,
              f"switch queries_visible={dns['switch']['queries_visible']}"),
        Claim("every wireless MITM path takes <= 2 active steps",
              all(steps <= 2 for steps in wireless_steps),
              f"wireless steps {wireless_steps}"),
    ]


def vpn_overhead(result: dict) -> list:
    rows = result["rows"]

    def pick(loss, transport):
        return next(r for r in rows
                    if r["radio_loss"] == loss and r["transport"] == transport)

    clean_tcp = pick(0.0, "ppp-ssh (tcp)")
    mild_tcp = pick(0.05, "ppp-ssh (tcp)")
    lossy_tcp = pick(0.20, "ppp-ssh (tcp)")
    lossy_native = pick(0.20, "native")
    lossy_esp = pick(0.20, "esp (udp)")
    clean = {t: pick(0.0, t)["delivery"]
             for t in ("native", "ppp-ssh (tcp)", "esp (udp)")}
    return [
        Claim("TCP tunnel still delivers > 0.95 at 5% loss",
              mild_tcp["delivery"] > 0.95,
              f"delivery={mild_tcp['delivery']}"),
        Claim("... at > 10x its clean p95 latency",
              _ms(mild_tcp["p95_ms"])
              > 10 * max(_ms(clean_tcp["p95_ms"]), 1.0),
              f"p95 {mild_tcp['p95_ms']} ms vs clean {clean_tcp['p95_ms']} ms"),
        Claim("native UDP loses what the radio loses at 20% (< 0.9)",
              lossy_native["delivery"] < 0.9,
              f"delivery={lossy_native['delivery']}"),
        Claim("ESP loses what the radio loses at 20% (< 0.9)",
              lossy_esp["delivery"] < 0.9,
              f"delivery={lossy_esp['delivery']}"),
        Claim("ESP latency stays flat at 20% loss (p95 < 5 ms)",
              _ms(lossy_esp["p95_ms"]) < 5.0,
              f"p95={lossy_esp['p95_ms']} ms"),
        Claim("TCP tunnel melts down at 20% loss (p95 > 1000 ms)",
              _ms(lossy_tcp["p95_ms"]) > 1000.0,
              f"p95={lossy_tcp['p95_ms']} ms"),
        Claim("TCP tunnel p95 > 100x ESP's at 20% loss",
              _ms(lossy_tcp["p95_ms"]) > 100 * _ms(lossy_esp["p95_ms"]),
              f"{lossy_tcp['p95_ms']} ms vs {lossy_esp['p95_ms']} ms"),
        Claim("TCP tunnel delivers less than ESP at 20% loss",
              lossy_tcp["delivery"] < lossy_esp["delivery"],
              f"{lossy_tcp['delivery']} vs {lossy_esp['delivery']}"),
        Claim("every transport delivers > 0.97 with no loss",
              all(d > 0.97 for d in clean.values()),
              ", ".join(f"{t} {d}" for t, d in clean.items())),
    ]


def rogue_detection(result: dict) -> list:
    rows = result["rows"]
    return [
        Claim("the monitor flags the rogue at every gap threshold (TPR 1)",
              all(r["true_positive_rate"] == 1.0 for r in rows),
              f"TPR {[r['true_positive_rate'] for r in rows]}"),
        Claim("no false positive on the clean network (FPR 0)",
              all(r["false_positive_rate"] == 0.0 for r in rows),
              f"FPR {[r['false_positive_rate'] for r in rows]}"),
    ]


def network_promiscuity(result: dict) -> list:
    rows = result["rows"]
    s = result["per_visit_compromise_prob"]
    curves = {p: sorted((r for r in rows if r["hostile_fraction"] == p),
                        key=lambda r: r["domains_visited"])
              for p in (0.1, 0.3)}
    risk = {p: [r["p_compromised_no_vpn"] for r in curve]
            for p, curve in curves.items()}
    gaps = [abs(r["p_compromised_no_vpn"] - r["analytic"])
            for curve in curves.values() for r in curve]
    k10 = {r["hostile_fraction"]: r["p_compromised_no_vpn"]
           for r in rows if r["domains_visited"] == 10}
    return [
        Claim("a hostile visit nearly always compromises (>= 0.9)",
              s >= 0.9, f"per_visit_compromise_prob={s}"),
        Claim("risk without a VPN rises with domains visited",
              all(_rising(probs, 0.03) for probs in risk.values()),
              "; ".join(f"p={p}: {probs}" for p, probs in risk.items())),
        Claim("risk matches 1-(1-p*s)^K within 0.05",
              all(gap < 0.05 for gap in gaps),
              f"largest gap {max(gaps):.3f}"),
        Claim("an always-on VPN keeps the risk at zero",
              all(r["p_compromised_always_on_vpn"] == 0.0
                  for curve in curves.values() for r in curve),
              f"{sum(len(c) for c in curves.values())} points checked"),
        Claim("more hostile domains, more risk at K = 10",
              k10[0.3] > k10[0.1], f"p=0.3: {k10[0.3]} vs p=0.1: {k10[0.1]}"),
    ]


def trusted_website(result: dict) -> list:
    rows = result["rows"]
    honest = next(r for r in rows if "honest" in r["arm"])
    unpatched = next(r for r in rows if "hostile" in r["arm"]
                     and "unpatched" in r["arm"])
    patched = next(r for r in rows if r["arm"].endswith("patched")
                   and "un" not in r["arm"].split(",")[1])
    return [
        Claim("the page loads in every arm",
              all(r["page_loaded"] for r in rows),
              f"page_loaded {[r['page_loaded'] for r in rows]}"),
        Claim("the honest hotspot neither tampers nor compromises",
              not honest["tampered_in_flight"] and not honest["compromised"],
              f"tampered={honest['tampered_in_flight']}, "
              f"compromised={honest['compromised']}"),
        Claim("the hostile hotspot tampers with the unpatched client's page",
              bool(unpatched["tampered_in_flight"]),
              f"tampered={unpatched['tampered_in_flight']}"),
        Claim("the injected exploit runs on the unpatched client",
              bool(unpatched["exploit_executed"]),
              f"exploit_executed={unpatched['exploit_executed']}"),
        Claim("the unpatched client is compromised",
              bool(unpatched["compromised"]),
              f"compromised={unpatched['compromised']}"),
        Claim("the patched client is still served tampered content",
              bool(patched["tampered_in_flight"]),
              f"tampered={patched['tampered_in_flight']}"),
        Claim("the patched client is not compromised",
              not patched["compromised"],
              f"compromised={patched['compromised']}"),
    ]


def dot1x_wpa_gap(result: dict) -> list:
    by_net = {r["network"]: r for r in result["rows"]}
    legit = by_net["802.1X legitimate AP"]
    rogue = by_net["802.1X ROGUE AP (no server)"]
    outsider = by_net["WPA-PSK ROGUE, outsider"]
    insider = by_net["WPA-PSK ROGUE, valid client"]
    return [
        Claim("the client accepts the legitimate 802.1X AP",
              bool(legit["client_accepts_network"]),
              f"client_accepts_network={legit['client_accepts_network']}"),
        Claim("the client accepts a credential-less 802.1X rogue",
              bool(rogue["client_accepts_network"]),
              f"client_accepts_network={rogue['client_accepts_network']}"),
        Claim("... which never authenticated itself to the client",
              not rogue["network_authenticated_to_client"],
              f"network_authenticated_to_client="
              f"{rogue['network_authenticated_to_client']}"),
        Claim("WPA-PSK rejects an outsider's rogue",
              not outsider["client_accepts_network"],
              f"client_accepts_network={outsider['client_accepts_network']}"),
        Claim("WPA-PSK accepts a rogue run by any valid client",
              bool(insider["client_accepts_network"]),
              f"client_accepts_network={insider['client_accepts_network']}"),
    ]


def first_hop_detection(result: dict) -> list:
    rows = result["rows"]
    rogue = next(r for r in rows if r["network"] == "rogue in path")
    clean = next(r for r in rows if r["network"] == "clean")
    return [
        Claim("the TTL=1 probe always names the routing rogue",
              rogue["probe_flags_rogue"] == 1.0,
              f"rogue in path: {rogue['probe_flags_rogue']}"),
        Claim("the probe never alarms on a clean path",
              clean["probe_flags_rogue"] == 0.0,
              f"clean: {clean['probe_flags_rogue']}"),
    ]


def containment(result: dict) -> list:
    rows = result["rows"]
    baseline = next(r for r in rows if r["containment_rate_hz"] == 0.0)
    active = sorted((r for r in rows if r["containment_rate_hz"] > 0),
                    key=lambda r: r["containment_rate_hz"])
    times = [_ms(r["mean_time_to_evict_s"]) for r in active]
    return [
        Claim("without containment captured victims stay captured",
              baseline["eviction_rate"] == 0.0,
              f"eviction_rate={baseline['eviction_rate']} at 0 Hz"),
        Claim("every containment rate evicts every victim",
              all(r["eviction_rate"] == 1.0 for r in active),
              f"eviction rates {[r['eviction_rate'] for r in active]}"),
        Claim("faster injection evicts no later (within 1 s)",
              times[-1] <= times[0] + 1.0,
              f"{times[-1]} s at {active[-1]['containment_rate_hz']} Hz vs "
              f"{times[0]} s at {active[0]['containment_rate_hz']} Hz"),
    ]


def wids_eval(result: dict) -> list:
    rows = result["scorecard"]["rows"]
    evasion = result["evasion"]
    return [
        Claim("the first alert precedes the netsed rewrite",
              bool(result["alert_before_rewrite"]),
              f"alert_before_rewrite={result['alert_before_rewrite']}"),
        Claim("no alert in the benign office",
              result["benign_false_positives"] == 0,
              f"benign_false_positives={result['benign_false_positives']}"),
        Claim("no false positive at any threshold",
              all(r["fp"] == 0 for r in rows),
              f"{sum(r['fp'] for r in rows)} FP over {len(rows)} rows"),
        Claim("seqctl mirroring silences the sequence-gap analysis",
              bool(evasion["seqctl_evaded"]),
              f"seqctl_evaded={evasion['seqctl_evaded']}"),
        Claim("cadence matching silences the jitter analysis",
              bool(evasion["jitter_evaded"]),
              f"jitter_evaded={evasion['jitter_evaded']}"),
        Claim("the second radio cannot hide: fingerprint and multichannel",
              evasion["unhideable"] == ["fingerprint", "multichannel"],
              f"unhideable={evasion['unhideable']}"),
    ]


def downgrade(result: dict) -> list:
    rows = result["scorecard"]["rows"]
    return [
        Claim("the benign arm negotiates SAE",
              bool(result["benign_negotiates_sae"]),
              f"benign_negotiates_sae={result['benign_negotiates_sae']}"),
        Claim("the rogue coerces the client to WPA2-PSK",
              bool(result["coerced_to_wpa2"]),
              f"coerced_to_wpa2={result['coerced_to_wpa2']}"),
        Claim("the rogue coerces the non-strict client to open",
              bool(result["coerced_to_open"]),
              f"coerced_to_open={result['coerced_to_open']}"),
        Claim("rsn-mismatch flags the downgrade",
              bool(result["downgrade_flagged"]),
              f"downgrade_flagged={result['downgrade_flagged']}"),
        Claim("no alert on the benign arm",
              result["benign_false_positives"] == 0,
              f"benign_false_positives={result['benign_false_positives']}"),
        Claim("no false positive at any threshold",
              all(r["fp"] == 0 for r in rows),
              f"{sum(r['fp'] for r in rows)} FP over {len(rows)} rows"),
    ]


def csa_lure(result: dict) -> list:
    rows = result["scorecard"]["rows"]
    return [
        Claim("forged CSA beacons herd the victim to the twin's channel",
              bool(result["herded"]), f"herded={result['herded']}"),
        Claim("the victim's data link goes dark",
              bool(result["link_dark_after_lure"]),
              f"link_dark_after_lure={result['link_dark_after_lure']}"),
        Claim("unexpected-CSA flags the lure",
              bool(result["csa_flagged"]),
              f"csa_flagged={result['csa_flagged']}"),
        Claim("no alert on the benign arm",
              result["benign_false_positives"] == 0,
              f"benign_false_positives={result['benign_false_positives']}"),
        Claim("no false positive at any threshold",
              all(r["fp"] == 0 for r in rows),
              f"{sum(r['fp'] for r in rows)} FP over {len(rows)} rows"),
    ]


def pmf_flood(result: dict) -> list:
    worlds = {"PMF off": result["pmf_off"], "PMF on": result["pmf_on"]}
    return [
        Claim("the deauth flood knocks a pre-PMF client off",
              bool(result["flood_effective_without_pmf"]),
              f"flood_effective_without_pmf="
              f"{result['flood_effective_without_pmf']}"),
        Claim("PMF discards the forgeries: the session survives",
              bool(result["pmf_protects"]),
              f"pmf_protects={result['pmf_protects']}"),
        Claim("the WIDS sees the flood with PMF off and on",
              all("deauth-flood" in w["alerted_detectors"]
                  for w in worlds.values()),
              "; ".join(f"{name}: {w['alerted_detectors']}"
                        for name, w in worlds.items())),
    ]
