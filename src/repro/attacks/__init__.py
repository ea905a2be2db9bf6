"""Attack implementations.

Everything the paper performs or references: the rogue access point
with its parprouted bridge and netsed rewriter (§4), deauthentication
forcing (§4), passive sniffing and Airsnort/FMS WEP key recovery
(§2.1, §4), MAC spoofing against address filters (§2.1), the wired
DNS-spoofing MITM baseline (§1.2) and the hostile hotspot (§1.3.2).

These exist to be measured.  They run only against the simulated
substrate in this repository.
"""

from repro.attacks.airsnort import AirsnortAttack
from repro.attacks.deauth import DeauthAttacker
from repro.attacks.dns_spoof import DnsSpoofer
from repro.attacks.hotspot import HostileHotspot
from repro.attacks.mac_spoof import observe_client_macs, spoof_mac
from repro.attacks.netsed import NetsedProxy, NetsedRule, StreamingRewriter
from repro.attacks.parprouted import Parprouted
from repro.attacks.rogue_ap import RogueAccessPoint
from repro.attacks.sniffer import MonitorSniffer
from repro.attacks.tamper import InPathTamperer, compromise_gateway
from repro.attacks.trojan import trojanize
from repro.attacks.wired_mitm import MitmPath, wired_vs_wireless_paths

__all__ = [
    "AirsnortAttack",
    "DeauthAttacker",
    "DnsSpoofer",
    "HostileHotspot",
    "InPathTamperer",
    "MitmPath",
    "MonitorSniffer",
    "NetsedProxy",
    "NetsedRule",
    "Parprouted",
    "RogueAccessPoint",
    "StreamingRewriter",
    "compromise_gateway",
    "observe_client_macs",
    "spoof_mac",
    "trojanize",
    "wired_vs_wireless_paths",
]
