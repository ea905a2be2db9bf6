"""SimRandom: determinism, substream independence, helper behaviour."""

from repro.sim.rng import SimRandom


def test_same_seed_same_sequence():
    a = SimRandom(42)
    b = SimRandom(42)
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]


def test_different_seed_different_sequence():
    assert [SimRandom(1).random() for _ in range(5)] != \
           [SimRandom(2).random() for _ in range(5)]


def test_substream_is_deterministic_and_named():
    a = SimRandom(9).substream("radio")
    b = SimRandom(9).substream("radio")
    c = SimRandom(9).substream("other")
    seq_a = [a.randint(0, 1000) for _ in range(10)]
    assert seq_a == [b.randint(0, 1000) for _ in range(10)]
    assert seq_a != [c.randint(0, 1000) for _ in range(10)]


def test_substream_isolation_from_parent_consumption():
    """Drawing from the parent must not perturb a substream."""
    parent1 = SimRandom(5)
    sub_before = [parent1.substream("x").random() for _ in range(3)]
    parent2 = SimRandom(5)
    for _ in range(100):
        parent2.random()
    sub_after = [parent2.substream("x").random() for _ in range(3)]
    assert sub_before == sub_after


def test_bernoulli_edges():
    rng = SimRandom(0)
    assert rng.bernoulli(0.0) is False
    assert rng.bernoulli(1.0) is True
    assert rng.bernoulli(-1.0) is False
    assert rng.bernoulli(2.0) is True


def test_bernoulli_rate_roughly_matches_p():
    rng = SimRandom(3)
    hits = sum(rng.bernoulli(0.3) for _ in range(10000))
    assert 2700 < hits < 3300


def test_bytes_length_and_determinism():
    assert len(SimRandom(1).bytes(17)) == 17
    assert SimRandom(1).bytes(8) == SimRandom(1).bytes(8)
