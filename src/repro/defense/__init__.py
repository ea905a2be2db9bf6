"""Defenses: the paper's solution and the ones it finds wanting.

* :mod:`repro.defense.vpn` — the paper's actual solution (§5): tunnel
  *all* client traffic through PPP-over-SSH to a pre-arranged trusted
  endpoint on a wired network.
* :mod:`repro.defense.ipsec` — the UDP-transport alternative the
  paper's future work contemplates (reference [13], WAVEsec).
* :mod:`repro.defense.dot1x` — the 802.1X link-layer mechanism §2.2
  shows is insufficient (no network authentication).  WPA-PSK, the
  other one (a shared PSK), runs on the radio path in
  :mod:`repro.hosts.wpa_link`.
"""

from repro.defense.containment import ContainmentAction, ContainmentSensor
from repro.defense.dot1x import Dot1xAuthenticator, Dot1xSupplicant, EapAuthServer
from repro.defense.ipsec import EspTunnelClient, EspTunnelServer
from repro.defense.pathcheck import PathCheckResult, check_first_hop
from repro.defense.vpn import VpnClient, VpnServer

__all__ = [
    "ContainmentAction",
    "ContainmentSensor",
    "Dot1xAuthenticator",
    "Dot1xSupplicant",
    "EapAuthServer",
    "EspTunnelClient",
    "EspTunnelServer",
    "PathCheckResult",
    "VpnClient",
    "VpnServer",
    "check_first_hop",
]
