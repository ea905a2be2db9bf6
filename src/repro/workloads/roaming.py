"""Network promiscuity: a client roaming across administrative domains.

§3.2: "Mobility implies that a computer will move between
administrative domains. ... Since a computer will cross domains there
may now be incentive for a domain administrator to interfere with a
client computer's operation with the intent of compromising another
administrative domain."

The E-PROM experiment is two-stage (documented hybrid):

1. A *full-fidelity* hotspot visit is simulated once per arm with
   :func:`repro.core.scenario.build_hotspot_scenario` to measure the
   per-hostile-visit compromise probability ``s`` (and confirm the
   VPN arm's ``s ≈ 0``) — nothing is assumed about the attack working.
2. The K-domain roaming chain is then sampled with that measured
   ``s``: each visited domain is hostile with probability ``p``; the
   client is compromised after its first successful hostile visit and
   *stays* compromised when it returns home (the §3.2 punchline —
   "bringing trouble back home").

Running K full radio simulations per trial per sweep point would add
nothing but runtime: within one visit, compromise is independent of
history, which stage 1 establishes by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.rng import SimRandom

__all__ = ["RoamingOutcome", "simulate_roaming_client"]


@dataclass
class RoamingOutcome:
    """One roaming client's trip through K domains."""

    domains_visited: int
    hostile_encounters: int
    compromised: bool
    compromised_at_visit: int | None  # 1-based index, None if clean

    @property
    def brought_home(self) -> bool:
        """Did the client return to the home network carrying a compromise?"""
        return self.compromised


def simulate_roaming_client(
    rng: SimRandom,
    *,
    domains: int,
    hostile_fraction: float,
    per_visit_compromise_prob: float,
) -> RoamingOutcome:
    """Sample one client's K-domain trip (stage 2 of the hybrid)."""
    hostile_encounters = 0
    compromised_at = None
    for visit in range(1, domains + 1):
        if not rng.bernoulli(hostile_fraction):
            continue
        hostile_encounters += 1
        if compromised_at is None and rng.bernoulli(per_visit_compromise_prob):
            compromised_at = visit
    return RoamingOutcome(
        domains_visited=domains,
        hostile_encounters=hostile_encounters,
        compromised=compromised_at is not None,
        compromised_at_visit=compromised_at,
    )
