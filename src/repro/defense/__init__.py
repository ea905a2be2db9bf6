"""Defenses: the paper's solution and the ones it finds wanting.

* :mod:`repro.defense.vpn` — the paper's actual solution (§5): tunnel
  *all* client traffic through PPP-over-SSH to a pre-arranged trusted
  endpoint on a wired network.
* :mod:`repro.defense.ipsec` — the UDP-transport alternative the
  paper's future work contemplates (reference [13], WAVEsec).
* :mod:`repro.defense.dot1x` / :mod:`repro.defense.wpa` — the
  link-layer mechanisms §2.2 shows are insufficient (no network
  authentication; shared PSK).
* :mod:`repro.wids` (re-exported here for compatibility) — the §2.3
  monitoring practices (sequence-control analysis, now the first
  detector of the WIDS registry; multi-channel and beacon-fingerprint
  detectors in place of a radio site survey).
"""

from repro.defense.containment import ContainmentAction, ContainmentSensor
from repro.wids.detectors import SeqCtlMonitor, SpoofVerdict
from repro.defense.dot1x import Dot1xAuthenticator, Dot1xSupplicant, EapAuthServer
from repro.defense.ipsec import EspTunnelClient, EspTunnelServer
from repro.defense.pathcheck import PathCheckResult, check_first_hop
from repro.defense.vpn import VpnClient, VpnServer
from repro.defense.wpa import WpaPskAuthenticator, WpaPskSupplicant, derive_ptk

__all__ = [
    "ContainmentAction",
    "ContainmentSensor",
    "Dot1xAuthenticator",
    "Dot1xSupplicant",
    "EapAuthServer",
    "EspTunnelClient",
    "EspTunnelServer",
    "PathCheckResult",
    "SeqCtlMonitor",
    "SpoofVerdict",
    "VpnClient",
    "VpnServer",
    "WpaPskAuthenticator",
    "WpaPskSupplicant",
    "check_first_hop",
    "derive_ptk",
]
