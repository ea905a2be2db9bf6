"""Scenario builders: the paper's figures as constructible worlds.

Every experiment and benchmark builds one of these instead of
hand-wiring hosts, so topology and parameters live in exactly one
place.  Coordinates (metres): the legitimate AP at the origin, the
office extending east; the rogue parks near the victim.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.attacks.rogue_ap import RogueAccessPoint
from repro.attacks.trojan import build_trojan_site
from repro.crypto.keystore import KeyStore
from repro.crypto.wep import WepKey
from repro.defense.vpn import VpnClient, VpnServer
from repro.dot11.mac import MacAddress
from repro.hosts.access_point import AccessPoint
from repro.hosts.gateway import Router, Wan, build_wan
from repro.hosts.host import Host
from repro.hosts.nic import WiredInterface
from repro.hosts.services import DhcpClientService, DnsResolver, DnsServerService
from repro.hosts.station import Station
from repro.httpsim.browser import Browser, DownloadOutcome
from repro.httpsim.content import Website, make_download_page, make_news_page
from repro.httpsim.downloads import make_binary
from repro.httpsim.server import HttpServer
from repro.netstack.dns import DnsZone
from repro.netstack.ethernet import Hub, LanSegment, Switch
from repro.radio.medium import Medium
from repro.radio.propagation import Position
from repro.sim.kernel import Simulator

__all__ = [
    "CorpScenario",
    "HotspotScenario",
    "WiredOfficeScenario",
    "build_corp_scenario",
    "build_hotspot_scenario",
    "build_wired_office",
]

# Canonical addresses, following Fig. 1 / Appendix A where given.
LEGIT_BSSID = MacAddress("aa:bb:cc:dd:00:01")
TARGET_IP = "198.51.100.80"
EVIL_IP = "198.51.100.66"
VPN_IP = "198.51.100.22"
DNS_IP = "198.51.100.53"
TARGET_HOSTNAME = "downloads.corp.example"
VICTIM_IP = "10.0.0.23"
GATEWAY_IP = "10.0.0.1"
VPN_SHARED_SECRET = b"corp-vpn-out-of-band-secret"
VPN_SERVER_NAME = "vpn.corp.example"
ROGUE_POSITION = Position(38.0, 0.0)


@dataclass
class CorpScenario:
    """The Fig. 1 world: corporate WLAN, WAN servers, optional rogue."""

    sim: Simulator
    medium: Medium
    lan: Switch
    wan: Wan
    ap: AccessPoint
    wep: Optional[WepKey]
    target_server: Host
    evil_server: Host
    target_site: Website
    evil_site: Website
    binary: bytes
    trojan: bytes
    real_md5: str
    fake_md5: str
    vpn_host: Host
    vpn_server: VpnServer
    dns_host: Host
    zone: DnsZone
    rogue: Optional[RogueAccessPoint] = None
    victims: list[Station] = field(default_factory=list)

    def resolver_for(self, station: Station) -> DnsResolver:
        """A stub resolver pointed at the corp DNS server."""
        return DnsResolver(station, DNS_IP)

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add_victim(self, *, position: Position = Position(40.0, 0.0),
                   ip: str = VICTIM_IP, name: str = "victim",
                   policy=None) -> Station:
        """A client configured per §4.1 (SSID CORP, WEP key entered)."""
        station = Station(self.sim, name, self.medium, position)
        station.connect("CORP", wep_key=self.wep, ip=ip, gateway=GATEWAY_IP,
                        policy=policy)
        self.victims.append(station)
        return station

    def add_rogue(self, wep_key: Optional[WepKey],
                  position: Position = ROGUE_POSITION,
                  **evasion) -> RogueAccessPoint:
        """Start the §4.1 rogue: the AP's BSSID cloned on channel 6.

        ``wep_key`` is what the attacker holds (a valid client's key, or
        Airsnort's result; ``None`` is an open rogue).  ``evasion`` goes
        to :class:`RogueAccessPoint`'s WIDS-evasion options unchanged.
        """
        self.rogue = RogueAccessPoint(
            self.sim, self.medium, position,
            clone_bssid=LEGIT_BSSID, legit_channel=1,
            rogue_channel=6, wep_key=wep_key, **evasion)
        self.rogue.start()
        return self.rogue

    def arm_download_mitm(self) -> None:
        """Install the §4.1 netsed rules on the rogue."""
        assert self.rogue is not None, "scenario was built without a rogue"
        self.rogue.install_download_mitm(TARGET_IP, rules=[
            f"s/href=file.tgz/href=http:%2f%2f{EVIL_IP}%2ffile.tgz/",
            f"s/{self.real_md5}/{self.fake_md5}/",
        ])

    def connect_vpn(self, station: Station) -> VpnClient:
        """Give a victim the paper's §5 protection."""
        keystore = KeyStore()
        keystore.enroll(VPN_SERVER_NAME, VPN_SHARED_SECRET)
        client = VpnClient(station, keystore, VPN_SERVER_NAME, VPN_IP)
        client.connect()
        return client

    def run_download_experiment(self, station: Station,
                                settle_s: float = 60.0) -> DownloadOutcome:
        """The §4.1 victim behaviour: fetch page, verify MD5, run binary."""
        browser = Browser(station)
        outcome = browser.download_and_run(f"http://{TARGET_IP}/download.html")
        self.sim.run_for(settle_s)
        return outcome


def build_corp_scenario(
    seed: int = 0,
    *,
    wep: bool = True,
    with_rogue: bool = True,
    rogue_position: Position = ROGUE_POSITION,
    rogue_mirror_seqctl: bool = False,
    rogue_beacon_jitter_s: float = 0.0,
    rogue_match_beacon_cadence: bool = False,
) -> CorpScenario:
    """Assemble Fig. 1 (plus WAN servers for Fig. 2 and Fig. 3)."""
    sim = Simulator(seed=seed)
    medium = Medium(sim)
    lan = Switch(sim, "corp-lan")
    wep_key = WepKey.from_passphrase("SECRET", bits=40) if wep else None
    ap = AccessPoint(sim, medium, "corp-ap", bssid=LEGIT_BSSID, ssid="CORP",
                     channel=1, position=Position(0.0, 0.0), wep_key=wep_key)
    ap.attach_uplink(lan)
    wan = build_wan(sim, lan, lan_gateway_ip=GATEWAY_IP)

    target = wan.add_server(sim, "target-web", TARGET_IP)
    binary = make_binary("file.tgz", 4096, sim.rng.substream("binary"))
    site = Website("target")
    real_md5 = make_download_page(site, binary=binary)
    HttpServer(target, site, 80)

    evil = wan.add_server(sim, "evil-web", EVIL_IP)
    evil_site, trojan, _ = build_trojan_site(binary)
    fake_md5 = hashlib.md5(trojan).hexdigest()
    HttpServer(evil, evil_site, 80)

    dns_host = wan.add_server(sim, "corp-dns", DNS_IP)
    zone = DnsZone({TARGET_HOSTNAME: TARGET_IP})
    DnsServerService(dns_host, zone)

    vpn_host = wan.add_server(sim, "vpn-endpoint", VPN_IP)
    server_ks = KeyStore()
    server_ks.enroll("victim", VPN_SHARED_SECRET)
    vpn_server = VpnServer(vpn_host, server_ks, nat_ip=VPN_IP)

    scenario = CorpScenario(
        sim=sim, medium=medium, lan=lan, wan=wan, ap=ap, wep=wep_key,
        target_server=target, evil_server=evil, target_site=site,
        evil_site=evil_site,
        binary=binary, trojan=trojan, real_md5=real_md5, fake_md5=fake_md5,
        vpn_host=vpn_host, vpn_server=vpn_server, dns_host=dns_host, zone=zone,
    )

    if with_rogue:
        # §4: the rogue "authenticate[s] to the existing network as a
        # valid client", so it holds the network's key.
        scenario.add_rogue(wep_key, rogue_position,
                           mirror_seqctl=rogue_mirror_seqctl,
                           beacon_jitter_s=rogue_beacon_jitter_s,
                           match_beacon_cadence=rogue_match_beacon_cadence)

    sim.run_for(4.0)
    return scenario


# ----------------------------------------------------------------------
# hostile hotspot (§1.3.2, §5.1)
# ----------------------------------------------------------------------

@dataclass
class HotspotScenario:
    """An airport hotspot in front of the public internet."""

    sim: Simulator
    medium: Medium
    hotspot: "object"              # attacks.hotspot.HostileHotspot
    news_server: Host
    news_site: Website
    zone: DnsZone

    def add_visitor(self, *, name: str = "traveler",
                    position: Position = Position(5.0, 0.0),
                    patched: bool = False) -> tuple[Station, Browser]:
        """A roaming client that joins the hotspot via DHCP."""
        station = Station(self.sim, name, self.medium, position)
        resolver_box: dict = {}

        def configured(lease) -> None:
            resolver_box["resolver"] = DnsResolver(station, lease.dns_server)

        dhcp = DhcpClientService(station, "wlan0", on_configured=configured)
        station.wlan.join(self.hotspot.ssid)
        station.wlan.on_associated = lambda *_: dhcp.start()
        self.sim.run_for(6.0)
        resolver = resolver_box.get("resolver")
        browser = Browser(station, resolver=resolver, patched=patched)
        return station, browser


def build_hotspot_scenario(seed: int = 0, *,
                           hostile: bool = True) -> HotspotScenario:
    """A hotspot (honest or hostile) in front of a trusted news site."""
    from repro.attacks.hotspot import HostileHotspot

    sim = Simulator(seed=seed)
    medium = Medium(sim)
    backbone = Switch(sim, "internet")
    # Upstream router for the hotspot's DSL line.
    isp = Router(sim, "isp-router")
    isp.add_wired("up0", backbone, "203.0.113.1")

    news = Host(sim, "news-server")
    mac = MacAddress.random(sim.rng.substream("mac.news"))
    iface = WiredInterface("eth0", mac)
    iface.attach_segment(backbone)
    news.add_interface(iface)
    iface.configure_ip("203.0.113.80")
    news.routing.add_default(isp.interfaces["up0"].ip, "eth0")
    news_site = Website("world-news")
    # §5.1: trusted site; benign widget script; page close-delimited the
    # way big dynamic news frontends were.
    make_news_page(news_site, headline="Markets calm; nothing exploited")
    news_site._static["/index.html"] = (
        news_site._static["/index.html"][0],
        news_site._static["/index.html"][1],
        False,
    )
    HttpServer(news, news_site, 80)

    zone = DnsZone({"news.example.com": "203.0.113.80"})
    tamper = ([(b"renderWeatherWidget()", b"exploit(0xdead)   ")]
              if hostile else [])
    hotspot = HostileHotspot(
        sim, medium, Position(0.0, 0.0), backbone,
        upstream_ip="203.0.113.7", upstream_gateway="203.0.113.1",
        zone=zone, tamper_rules=tamper,
    )
    sim.run_for(2.0)
    return HotspotScenario(sim=sim, medium=medium, hotspot=hotspot,
                           news_server=news, news_site=news_site, zone=zone)


# ----------------------------------------------------------------------
# wired office (E-WIRED baselines)
# ----------------------------------------------------------------------

@dataclass
class WiredOfficeScenario:
    """A wired LAN (hub or switch) with victim, attacker, gateway, servers."""

    sim: Simulator
    segment: LanSegment
    wan: Wan
    victim: Host
    attacker: Host
    dns_server: Host
    zone: DnsZone

    @property
    def gateway_ip(self):
        return self.wan.lan_gateway_ip


def build_wired_office(seed: int = 0, *,
                       fabric: str = "switch") -> WiredOfficeScenario:
    """§1.1's wired comparison topology.

    ``fabric`` is "switch" (the corporate norm the paper credits with
    resisting sniffing) or "hub" (the shared-medium case).
    """
    sim = Simulator(seed=seed)
    segment: LanSegment = (Switch(sim, "office") if fabric == "switch"
                           else Hub(sim, "office"))
    wan = build_wan(sim, segment)

    def wired_host(name: str, ip: str, promiscuous: bool = False) -> Host:
        host = Host(sim, name)
        mac = MacAddress.random(sim.rng.substream(f"mac.{name}"))
        iface = WiredInterface("eth0", mac, promiscuous=promiscuous)
        iface.attach_segment(segment)
        host.add_interface(iface)
        iface.configure_ip(ip)
        host.routing.add_default(wan.lan_gateway_ip, "eth0")
        return host

    victim = wired_host("victim", "10.0.0.23")
    attacker = wired_host("attacker", "10.0.0.66", promiscuous=True)
    dns_server = wired_host("dns", "10.0.0.53")
    zone = DnsZone({"downloads.example.com": TARGET_IP})
    DnsServerService(dns_server, zone)

    target = wan.add_server(sim, "target-web", TARGET_IP)
    binary = make_binary("file.tgz", 2048, sim.rng.substream("binary"))
    site = Website("target")
    make_download_page(site, binary=binary)
    HttpServer(target, site, 80)

    sim.run_for(1.0)
    return WiredOfficeScenario(sim=sim, segment=segment, wan=wan,
                               victim=victim, attacker=attacker,
                               dns_server=dns_server, zone=zone)
