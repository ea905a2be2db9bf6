"""The §1–§3 threat taxonomy, as data.

"wireless networks are prone to jamming, spoofing, rogue access
points, and possible Man-in-the-middle attacks" (§1) — and the paper's
thesis is that the *same* threats exist on wires with very different
prerequisites.  Each entry records both sides and points to the modules
that demonstrate it; jamming names none, because no experiment
simulates it (its row rests on the §1 rationale alone).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Threat", "ThreatApplicability", "threat_taxonomy"]


class ThreatApplicability(enum.Enum):
    """How practical a threat is on a given medium."""

    IMPRACTICAL = "impractical"
    REQUIRES_INSIDE_ACCESS = "requires-inside-access"
    PRACTICAL = "practical"
    TRIVIAL = "trivial"


@dataclass(frozen=True)
class Threat:
    name: str
    paper_anchor: str
    wired: ThreatApplicability
    wireless: ThreatApplicability
    rationale: str
    demonstrated_by: str  # comma-separated modules; "" = not simulated

    @property
    def wireless_amplified(self) -> bool:
        """Is this threat strictly easier on wireless?"""
        order = list(ThreatApplicability)
        return order.index(self.wireless) > order.index(self.wired)


def threat_taxonomy() -> list[Threat]:
    return [
        Threat(
            name="eavesdropping",
            paper_anchor="§1.1",
            wired=ThreatApplicability.REQUIRES_INSIDE_ACCESS,
            wireless=ThreatApplicability.TRIVIAL,
            rationale="switched LANs isolate unicast; routers are hard to "
                      "reprogram; radio is broadcast to anyone in range",
            demonstrated_by="repro.attacks.sniffer",
        ),
        Threat(
            name="jamming",
            paper_anchor="§1",
            wired=ThreatApplicability.IMPRACTICAL,
            wireless=ThreatApplicability.PRACTICAL,
            rationale="a wire must be cut; the ISM band only needs noise",
            demonstrated_by="",
        ),
        Threat(
            name="spoofing",
            paper_anchor="§1, §2.1",
            wired=ThreatApplicability.REQUIRES_INSIDE_ACCESS,
            wireless=ThreatApplicability.TRIVIAL,
            rationale="MAC and management frames carry no authenticator on "
                      "either medium, but wireless needs no jack",
            demonstrated_by="repro.attacks.mac_spoof, repro.attacks.deauth",
        ),
        Threat(
            name="rogue-access-point",
            paper_anchor="§1.3.1, §4",
            wired=ThreatApplicability.IMPRACTICAL,
            wireless=ThreatApplicability.PRACTICAL,
            rationale="no wired analogue: the client chooses its attachment "
                      "point by radio signal with no mutual authentication",
            demonstrated_by="repro.attacks.rogue_ap",
        ),
        Threat(
            name="man-in-the-middle",
            paper_anchor="§1.2, §4",
            wired=ThreatApplicability.REQUIRES_INSIDE_ACCESS,
            wireless=ThreatApplicability.PRACTICAL,
            rationale="wired MITM needs ARP/DNS spoofing from inside or a "
                      "gateway compromise; wireless MITM is an AP and a "
                      "bridge in a parking lot",
            demonstrated_by="repro.attacks.rogue_ap, repro.attacks.dns_spoof",
        ),
        Threat(
            name="hostile-hotspot",
            paper_anchor="§1.3.2, §5.1",
            wired=ThreatApplicability.IMPRACTICAL,
            wireless=ThreatApplicability.TRIVIAL,
            rationale="roaming clients voluntarily attach to infrastructure "
                      "owned by strangers (network promiscuity, §3.2)",
            demonstrated_by="repro.attacks.hotspot",
        ),
    ]
