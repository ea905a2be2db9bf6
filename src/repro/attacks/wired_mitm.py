"""Wired-vs-wireless MITM comparison (§1.1, §1.2, §3).

The paper's core argument is comparative: every attack here exists on
wired networks too, but the *prerequisites* differ radically.  This
module encodes each man-in-the-middle path as a structured
:class:`MitmPath` — what access the attacker needs, how many active
steps, what defenses see it — so E-WIRED can print the comparison
table alongside the executable demonstrations (DNS racing on a hub,
rogue AP on the air); the ARP-spoofing row is a prerequisite only.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MitmPath", "wired_vs_wireless_paths"]


@dataclass(frozen=True)
class MitmPath:
    """One way of getting into the middle of a victim's traffic."""

    name: str
    medium: str                     # "wired" | "wireless"
    access_required: str            # what foothold the attacker needs first
    physical_presence: str          # where the attacker's body/hardware must be
    active_steps: tuple[str, ...]   # protocol actions once in position
    observable_by: tuple[str, ...]  # what defensive monitoring could notice
    paper_anchor: str

    @property
    def step_count(self) -> int:
        return len(self.active_steps)


def wired_vs_wireless_paths() -> list[MitmPath]:
    """The §1.2 taxonomy, one entry per path the paper names."""
    return [
        MitmPath(
            name="arp-spoof",
            medium="wired",
            access_required="a switch port on the victim's LAN (inside the building)",
            physical_presence="inside the physically secured perimeter",
            active_steps=(
                "learn victim and gateway MAC/IP pairs",
                "continuously poison victim's ARP cache",
                "continuously poison gateway's ARP cache",
                "forward relayed traffic to stay unnoticed",
            ),
            observable_by=("arpwatch-style ARP monitoring", "switch port security"),
            paper_anchor="§1.2 'spoof ... ARP requests'",
        ),
        MitmPath(
            name="dns-spoof",
            medium="wired",
            access_required="visibility of the victim's DNS queries "
                            "(hub segment or resolver compromise)",
            physical_presence="inside the perimeter, on a shared segment",
            active_steps=(
                "observe the query and its transaction id",
                "race a forged response past the real server",
            ),
            observable_by=("duplicate-response detection", "DNSSEC (later)"),
            paper_anchor="§1.2 'spoof DNS requests'",
        ),
        MitmPath(
            name="gateway-compromise",
            medium="wired",
            access_required="administrative compromise of a router in the path",
            physical_presence="none, but requires breaking a hardened host",
            active_steps=(
                "exploit and persist on the gateway",
                "install traffic interception",
            ),
            observable_by=("host integrity monitoring", "router config audits"),
            paper_anchor="§1.2 'compromise a valid gateway machine'",
        ),
        MitmPath(
            name="rogue-ap",
            medium="wireless",
            access_required="the WEP key — held as a valid client, or recovered "
                            "passively with Airsnort",
            physical_presence="radio range: the parking lot",
            active_steps=(
                "beacon the cloned SSID/BSSID",
                "bridge traffic with parprouted",
            ),
            observable_by=("sequence-control monitoring (§2.3)", "radio site audits"),
            paper_anchor="§4 proof-of-concept",
        ),
        MitmPath(
            name="hostile-hotspot",
            medium="wireless",
            access_required="none — the attacker owns the network",
            physical_presence="anywhere clients choose to roam",
            active_steps=(
                "operate an attractive open hotspot",
            ),
            observable_by=(),
            paper_anchor="§1.3.2",
        ),
    ]
