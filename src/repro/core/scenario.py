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
from repro.hosts.ap_core import MacFilter
from repro.hosts.gateway import Wan, build_wan
from repro.hosts.host import Host
from repro.hosts.nic import WiredInterface
from repro.hosts.services import DnsServerService, DnsResolver
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
    rogue: Optional[RogueAccessPoint] = None
    vpn_host: Optional[Host] = None
    vpn_server: Optional[VpnServer] = None
    dns_host: Optional[Host] = None
    zone: Optional[DnsZone] = None
    victims: list[Station] = field(default_factory=list)

    def resolver_for(self, station: Station) -> DnsResolver:
        """A stub resolver pointed at the corp DNS server."""
        return DnsResolver(station, DNS_IP)

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add_victim(self, *, position: Position = Position(40.0, 0.0),
                   ip: str = VICTIM_IP, name: str = "victim",
                   policy=None, wep_key="default") -> Station:
        """A client configured per §4.1 (SSID CORP, WEP key entered)."""
        station = Station(self.sim, name, self.medium, position)
        key = self.wep if wep_key == "default" else wep_key
        station.connect("CORP", wep_key=key, ip=ip, gateway=GATEWAY_IP,
                        policy=policy)
        self.victims.append(station)
        return station

    def arm_download_mitm(self, *, streaming: bool = False) -> None:
        """Install the §4.1 netsed rules on the rogue."""
        assert self.rogue is not None, "scenario was built without a rogue"
        self.rogue.install_download_mitm(TARGET_IP, rules=[
            f"s/href=file.tgz/href=http:%2f%2f{EVIL_IP}%2ffile.tgz/",
            f"s/{self.real_md5}/{self.fake_md5}/",
        ], streaming=streaming)

    def connect_vpn(self, station: Station) -> VpnClient:
        """Give a victim the paper's §5 protection."""
        assert self.vpn_server is not None, "scenario was built without a VPN endpoint"
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
    wep_bits: int = 40,
    mac_filter_macs: Optional[list[MacAddress]] = None,
    with_rogue: bool = True,
    rogue_channel: int = 6,
    rogue_position: Position = Position(38.0, 0.0),
    rogue_wep: str = "same",     # "same" | "none" | "cracked-later"
    rogue_mirror_seqctl: bool = False,
    rogue_beacon_jitter_s: float = 0.0,
    rogue_match_beacon_cadence: bool = False,
    with_vpn_endpoint: bool = True,
    settle_s: float = 4.0,
) -> CorpScenario:
    """Assemble Fig. 1 (plus WAN servers for Fig. 2 and Fig. 3)."""
    sim = Simulator(seed=seed)
    medium = Medium(sim)
    lan = Switch(sim, "corp-lan")
    wep_key = WepKey.from_passphrase("SECRET", bits=wep_bits) if wep else None
    mac_filter = MacFilter(mac_filter_macs) if mac_filter_macs is not None else None
    ap = AccessPoint(sim, medium, "corp-ap", bssid=LEGIT_BSSID, ssid="CORP",
                     channel=1, position=Position(0.0, 0.0), wep_key=wep_key,
                     mac_filter=mac_filter)
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

    scenario = CorpScenario(
        sim=sim, medium=medium, lan=lan, wan=wan, ap=ap, wep=wep_key,
        target_server=target, evil_server=evil, target_site=site,
        evil_site=evil_site,
        binary=binary, trojan=trojan, real_md5=real_md5, fake_md5=fake_md5,
        dns_host=dns_host, zone=zone,
    )

    if with_vpn_endpoint:
        vpn_host = wan.add_server(sim, "vpn-endpoint", VPN_IP)
        server_ks = KeyStore()
        server_ks.enroll("victim", VPN_SHARED_SECRET)
        scenario.vpn_host = vpn_host
        scenario.vpn_server = VpnServer(vpn_host, server_ks, nat_ip=VPN_IP)

    if with_rogue:
        rogue_key = wep_key if rogue_wep == "same" else None
        scenario.rogue = RogueAccessPoint(
            sim, medium, rogue_position,
            clone_bssid=LEGIT_BSSID, legit_channel=1,
            rogue_channel=rogue_channel, wep_key=rogue_key,
            mirror_seqctl=rogue_mirror_seqctl,
            beacon_jitter_s=rogue_beacon_jitter_s,
            match_beacon_cadence=rogue_match_beacon_cadence,
        )
        scenario.rogue.start()

    sim.run_for(settle_s)
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
        from repro.hosts.services import DhcpClientService
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


def build_hotspot_scenario(seed: int = 0, *, hostile: bool = True,
                           settle_s: float = 2.0) -> HotspotScenario:
    """A hotspot (honest or hostile) in front of a trusted news site."""
    from repro.attacks.hotspot import HostileHotspot
    from repro.httpsim.browser import EXPLOIT_MARKER

    sim = Simulator(seed=seed)
    medium = Medium(sim)
    backbone = Switch(sim, "internet")
    # Upstream router for the hotspot's DSL line.
    from repro.hosts.gateway import Router
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
    sim.run_for(settle_s)
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


def build_wired_office(seed: int = 0, *, fabric: str = "switch",
                       settle_s: float = 1.0) -> WiredOfficeScenario:
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

    sim.run_for(settle_s)
    return WiredOfficeScenario(sim=sim, segment=segment, wan=wan,
                               victim=victim, attacker=attacker,
                               dns_server=dns_server, zone=zone)
