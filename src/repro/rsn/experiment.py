"""E-DOWNGRADE / E-CSA / E-PMF: the modern Wi-Fi scenario pack.

Twenty years of fixes later, the paper's rogue problem comes back in
negotiated form, and these experiments measure both halves:

* **E-DOWNGRADE** — a WPA3-transition client versus a rogue offering
  weaker security.  The benign arm shows the client picking SAE with
  PMF; the attack arms show the same client coerced down to WPA2-PSK
  (no PMF, offline-crackable 4-way) or — with a sloppy supplicant —
  all the way to an open association in cleartext.  The new
  ``rsn-mismatch`` detector must flag the lure, and every detector
  must stay silent on the benign arm.
* **E-CSA** — channel-switch herding: forged CSA beacons drag an
  associated WPA3 victim onto the attacker's channel, where a cloned
  twin keeps it parked and its data link dark.  PMF does not help —
  beacons carry no MIC — so only the ``unexpected-CSA`` detector sees
  it.
* **E-PMF** — the paper's §4 deauth flood replayed against the same
  network with PMF off and PMF on.  Off: one forged frame per bounce,
  the client reassociates in a loop.  On: every forgery is discarded
  (MME missing/invalid), the original association survives the whole
  flood, and data keeps flowing.

All three follow the E-WIDS evaluation discipline: a monitor sniffer
feeds a streaming :class:`~repro.wids.engine.WidsEngine` and the
threshold-sweep :func:`~repro.wids.evaluation.evaluate`, with every
world's confusion cells merged into one local
:class:`~repro.obs.metrics.MetricsRegistry` so fleet campaigns produce
bit-identical scorecards serial vs parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.attacks.deauth import DeauthAttacker
from repro.attacks.sniffer import MonitorSniffer
from repro.crypto.wpa_kdf import psk_from_passphrase
from repro.dot11.mac import MacAddress
from repro.hosts.access_point import AccessPoint
from repro.hosts.host import Host
from repro.hosts.nic import WiredInterface
from repro.hosts.station import Station
from repro.netstack.ethernet import Switch
from repro.obs.metrics import MetricsRegistry
from repro.radio.medium import Medium
from repro.radio.propagation import Position
from repro.rsn.attacks import CsaLureAttack, DowngradeRogueAP
from repro.rsn.ie import AkmSuite, RsnIe
from repro.sim.kernel import Simulator
from repro.wids.engine import WidsEngine
from repro.wids.evaluation import GroundTruth, Scorecard, evaluate

__all__ = ["exp_csa_lure", "exp_downgrade", "exp_pmf_flood",
           "run_downgrade_world"]

SSID = "CORP"
LEGIT_BSSID = MacAddress("aa:bb:cc:dd:00:01")
SERVER_IP = "10.0.0.1"
VICTIM_IP = "10.0.0.23"
#: One passphrase backing both AKMs, as transition deployments do —
#: which is exactly why cracking the WPA2 side hands over the network.
PASSPHRASE = "corp-modern-pass"
PSK = psk_from_passphrase(PASSPHRASE, SSID)

LEGIT_CHANNEL = 1
ROGUE_CHANNEL = 6


@dataclass
class RsnWorld:
    """One modern-office world: AP, wired server, victim, WIDS tap."""

    sim: Simulator
    medium: Medium
    ap: AccessPoint
    victim: Station
    sniffer: MonitorSniffer
    engine: WidsEngine
    ping_replies: list = field(default_factory=list)

    def world_summary(self) -> dict:
        wlan = self.victim.wlan
        alerts = self.engine.alerts
        return {
            "associated": wlan.associated,
            "link_ready": wlan.link_ready,
            "akm": wlan.negotiated_akm,
            "pmf": wlan.pmf_active,
            "encrypted": wlan.link_encrypted,
            "channel": wlan.channel,
            "associations": wlan.associations,
            "deauths_received": wlan.deauths_received,
            "pmf_discards": wlan.pmf_discards,
            "csa_switches": wlan.csa_switches,
            "pings_ok": len(self.ping_replies),
            "alert_count": len(alerts),
            "alerted_detectors": sorted({a.detector for a in alerts}),
            "first_alert_t": alerts[0].t if alerts else None,
        }


def _build_world(seed: int, *, ap_rsn: Optional[RsnIe],
                 sae_password: Optional[str] = None,
                 wpa_psk: Optional[bytes] = None,
                 victim_rsn: Optional[RsnIe] = None,
                 victim_sae_password: Optional[str] = None,
                 victim_psk: Optional[bytes] = None,
                 rsn_strict: bool = True,
                 victim_position: Position = Position(10.0, 0.0),
                 settle_s: float = 5.0) -> RsnWorld:
    sim = Simulator(seed=seed)
    medium = Medium(sim)
    lan = Switch(sim, "corp-lan")
    ap = AccessPoint(sim, medium, "corp-ap", bssid=LEGIT_BSSID, ssid=SSID,
                     channel=LEGIT_CHANNEL, position=Position(0.0, 0.0),
                     rsn=ap_rsn, sae_password=sae_password, wpa_psk=wpa_psk)
    ap.attach_uplink(lan)
    server = Host(sim, "server")
    eth0 = WiredInterface("eth0", MacAddress.random(
        sim.rng.substream("mac.server")))
    eth0.attach_segment(lan)
    server.add_interface(eth0)
    eth0.configure_ip(SERVER_IP)
    sniffer = MonitorSniffer(sim, medium, Position(15.0, 5.0))
    engine = WidsEngine()
    engine.attach(sniffer.capture)
    victim = Station(sim, "victim", medium, victim_position)
    victim.connect(SSID, rsn=victim_rsn, sae_password=victim_sae_password,
                   wpa_psk=victim_psk, rsn_strict=rsn_strict,
                   ip=VICTIM_IP)
    world = RsnWorld(sim=sim, medium=medium, ap=ap, victim=victim,
                     sniffer=sniffer, engine=engine)
    sim.run_for(settle_s)
    return world


def _ping_probe(world: RsnWorld, *, every_s: float = 1.0,
                count: int = 10) -> None:
    """Schedule pings across the attack window, collecting replies."""
    for i in range(count):
        world.sim.schedule(
            i * every_s,
            lambda: world.victim.ping(SERVER_IP,
                                      on_reply=world.ping_replies.append))


# ----------------------------------------------------------------------
# E-PMF — the §4 deauth flood, before and after 802.11w
# ----------------------------------------------------------------------

def _pmf_world(seed: int, *, pmf: bool,
               registry: MetricsRegistry) -> dict:
    rsn = (RsnIe.wpa3() if pmf
           else RsnIe(akms=(int(AkmSuite.SAE),)))  # SAE, but no 802.11w
    world = _build_world(seed, ap_rsn=rsn, sae_password=PASSPHRASE,
                         victim_rsn=rsn, victim_sae_password=PASSPHRASE)
    attack_start = world.sim.now
    attacker = DeauthAttacker(world.sim, world.medium, Position(30.0, 0.0),
                              ap_bssid=LEGIT_BSSID, channel=LEGIT_CHANNEL,
                              target=world.victim.wlan.mac, rate_hz=10.0)
    attacker.start()
    _ping_probe(world, every_s=1.0, count=10)
    world.sim.run_for(12.0)
    attacker.stop()
    world.sim.run_for(2.0)
    evaluate(world.sniffer.capture,
             GroundTruth(rogue_present=True, attack_start_s=attack_start),
             registry=registry)
    out = world.world_summary()
    out["frames_injected"] = attacker.frames_injected
    return out


def exp_pmf_flood(seed: int = 1) -> dict:
    """Same network, same flood, PMF off vs on."""
    registry = MetricsRegistry()
    off = _pmf_world(seed, pmf=False, registry=registry)
    on = _pmf_world(seed, pmf=True, registry=registry)
    return {
        "pmf_off": off,
        "pmf_on": on,
        # Off: the flood works — forged frames tear the link down and
        # the client burns re-associations the whole window.
        "flood_effective_without_pmf": (
            off["deauths_received"] > 0 and off["associations"] > 1),
        # On: every forgery discarded, the first association survives,
        # and data kept flowing through the flood.
        "pmf_protects": (
            on["pmf_discards"] > 0 and on["associations"] == 1
            and on["link_ready"] and on["pings_ok"] > 0),
        "scorecard": Scorecard.from_registry(registry).to_json_dict(),
    }


# ----------------------------------------------------------------------
# E-DOWNGRADE — transition-mode coercion
# ----------------------------------------------------------------------

def run_downgrade_world(seed: int, *, mode: Optional[str]):
    """Build and run one WPA3-downgrade world *without* scoring it.

    ``mode``: None = benign, "wpa2" or "open" = rogue posture.  Returns
    ``(world, summary)`` — the finished :class:`RsnWorld` (its sniffer
    capture ready for any evaluation pass) and the world summary dict
    with the coercion outcome fields.  :func:`exp_downgrade` scores it;
    any other evaluation pass can reuse the finished world.
    """
    strict = mode != "open"
    world = _build_world(
        seed,
        ap_rsn=RsnIe.wpa3_transition(), sae_password=PASSPHRASE, wpa_psk=PSK,
        victim_rsn=RsnIe.wpa3_transition(), victim_sae_password=PASSPHRASE,
        victim_psk=PSK, rsn_strict=strict,
        # Victim sits between the AP and where the rogue will stand,
        # close enough that the rogue's signal wins selection.
        victim_position=Position(26.0, 0.0),
        settle_s=0.0)
    rogue = None
    if mode is not None:
        rogue = DowngradeRogueAP(
            world.sim, world.medium, Position(30.0, 0.0),
            ssid=SSID, bssid=LEGIT_BSSID, channel=ROGUE_CHANNEL,
            mode=mode, psk=PSK if mode == "wpa2" else None)
    world.sim.run_for(8.0)
    _ping_probe(world, every_s=1.0, count=5)
    world.sim.run_for(6.0)
    summary = world.world_summary()
    summary["on_rogue_channel"] = summary["channel"] == ROGUE_CHANNEL
    summary["rogue_client_count"] = len(rogue.victims) if rogue else 0
    return world, summary


def _downgrade_world(seed: int, *, mode: Optional[str],
                     registry: MetricsRegistry) -> dict:
    """``mode``: None = benign, "wpa2" or "open" = rogue posture."""
    world, out = run_downgrade_world(seed, mode=mode)
    evaluate(world.sniffer.capture,
             GroundTruth(rogue_present=mode is not None, attack_start_s=0.0),
             registry=registry)
    return out


def exp_downgrade(seed: int = 1) -> dict:
    """Benign / WPA2-coercion / open-coercion worlds, one scorecard."""
    registry = MetricsRegistry()
    benign = _downgrade_world(seed, mode=None, registry=registry)
    wpa2 = _downgrade_world(seed, mode="wpa2", registry=registry)
    open_ = _downgrade_world(seed, mode="open", registry=registry)
    return {
        "worlds": {"benign": benign, "wpa2": wpa2, "open": open_},
        # Benign: the transition client picks the strongest AKM.
        "benign_negotiates_sae": benign["akm"] == "SAE" and benign["pmf"],
        # WPA2 arm: the same SAE-capable client runs the crackable
        # 4-way against the rogue — no SAE, no PMF.
        "coerced_to_wpa2": (
            wpa2["akm"] == "PSK" and not wpa2["pmf"]
            and wpa2["on_rogue_channel"] and wpa2["rogue_client_count"] > 0),
        # Open arm: a non-strict client associates in cleartext.
        "coerced_to_open": (
            open_["akm"] is None and not open_["encrypted"]
            and open_["on_rogue_channel"] and open_["rogue_client_count"] > 0),
        "downgrade_flagged": "rsn-mismatch" in (
            set(wpa2["alerted_detectors"]) | set(open_["alerted_detectors"])),
        "benign_false_positives": benign["alert_count"],
        "scorecard": Scorecard.from_registry(registry).to_json_dict(),
    }


# ----------------------------------------------------------------------
# E-CSA — channel-switch herding
# ----------------------------------------------------------------------

def _csa_world(seed: int, *, attack: bool,
               registry: MetricsRegistry) -> dict:
    rsn = RsnIe.wpa3()
    world = _build_world(seed, ap_rsn=rsn, sae_password=PASSPHRASE,
                         victim_rsn=rsn, victim_sae_password=PASSPHRASE)
    pre_pings: list = []
    world.victim.ping(SERVER_IP, on_reply=pre_pings.append)
    world.sim.run_for(2.0)
    attack_start = world.sim.now
    lure = twin = None
    if attack:
        # The twin clones everything it can see — BSSID, SSID, RSN
        # posture — on its own channel; it does NOT know the password.
        twin = AccessPoint(world.sim, world.medium, "evil-twin",
                           bssid=LEGIT_BSSID, ssid=SSID,
                           channel=ROGUE_CHANNEL, position=Position(20.0, 0.0),
                           rsn=rsn, sae_password="not-the-password")
        lure = CsaLureAttack(world.sim, world.medium, Position(20.0, 0.0),
                             clone_bssid=LEGIT_BSSID, ssid=SSID,
                             legit_channel=LEGIT_CHANNEL,
                             lure_channel=ROGUE_CHANNEL, rsn=rsn,
                             rate_hz=10.0)
        lure.start()
    world.sim.run_for(5.0)
    if lure is not None:
        lure.stop()
    _ping_probe(world, every_s=1.0, count=5)
    world.sim.run_for(8.0)
    evaluate(world.sniffer.capture,
             GroundTruth(rogue_present=attack, attack_start_s=attack_start),
             registry=registry)
    out = world.world_summary()
    out["pre_attack_pings_ok"] = len(pre_pings)
    out["frames_injected"] = lure.frames_injected if lure else 0
    return out


def exp_csa_lure(seed: int = 1) -> dict:
    """Benign world vs CSA herding onto a cloned twin's channel."""
    registry = MetricsRegistry()
    benign = _csa_world(seed, attack=False, registry=registry)
    lured = _csa_world(seed, attack=True, registry=registry)
    return {
        "worlds": {"benign": benign, "lured": lured},
        # The victim obeyed the forged announcement: it retuned to the
        # attacker's channel and its (PMF-protected!) data link went
        # dark — beacons are still unauthenticated under WPA3.
        "herded": (lured["csa_switches"] >= 1
                   and lured["channel"] == ROGUE_CHANNEL),
        "link_dark_after_lure": (lured["pre_attack_pings_ok"] > 0
                                 and lured["pings_ok"] == 0),
        "csa_flagged": "unexpected-CSA" in lured["alerted_detectors"],
        "benign_false_positives": benign["alert_count"],
        "scorecard": Scorecard.from_registry(registry).to_json_dict(),
    }
