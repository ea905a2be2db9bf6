"""Traffic generators and the roaming model."""

import pytest

from repro.core.scenario import build_corp_scenario
from repro.sim.rng import SimRandom
from repro.workloads.roaming import RoamingOutcome, simulate_roaming_client
from repro.workloads.traffic import CbrUdpStream


@pytest.fixture(scope="module")
def traffic_world():
    scenario = build_corp_scenario(seed=111, with_rogue=False)
    victim = scenario.add_victim()
    scenario.sim.run_for(5.0)
    return scenario, victim


def test_cbr_udp_stream_delivery(traffic_world):
    scenario, victim = traffic_world
    stream = CbrUdpStream(victim, scenario.target_server, "198.51.100.80",
                          port=9001, rate_pps=50.0)
    stream.start(duration_s=4.0)
    scenario.sim.run_for(8.0)
    stream.stop()
    assert stream.sent >= 150
    assert stream.delivery_ratio > 0.95
    assert stream.duplicates == 0
    assert 0 < stream.latency_quantile(0.5) < 0.1


# ----------------------------------------------------------------------
# roaming model
# ----------------------------------------------------------------------

def test_roaming_no_hostiles_never_compromised():
    rng = SimRandom(1)
    for _ in range(50):
        out = simulate_roaming_client(rng, domains=10, hostile_fraction=0.0,
                                      per_visit_compromise_prob=1.0)
        assert not out.compromised
        assert out.hostile_encounters == 0


def test_roaming_certain_compromise():
    rng = SimRandom(2)
    out = simulate_roaming_client(rng, domains=5, hostile_fraction=1.0,
                                  per_visit_compromise_prob=1.0)
    assert out.compromised
    assert out.compromised_at_visit == 1
    assert out.brought_home


def test_roaming_rate_matches_analytic():
    """P(compromise) = 1 - (1 - p*s)^K."""
    rng = SimRandom(3)
    p, s, K, n = 0.3, 0.8, 6, 4000
    hits = sum(
        simulate_roaming_client(rng, domains=K, hostile_fraction=p,
                                per_visit_compromise_prob=s).compromised
        for _ in range(n)
    )
    expected = 1 - (1 - p * s) ** K
    assert abs(hits / n - expected) < 0.03


def test_roaming_more_domains_more_risk():
    rng = SimRandom(4)

    def rate(domains):
        return sum(
            simulate_roaming_client(rng, domains=domains, hostile_fraction=0.2,
                                    per_visit_compromise_prob=0.5).compromised
            for _ in range(1500)) / 1500

    assert rate(1) < rate(5) < rate(20)
