"""The numpy FMS vote kernel must agree exactly with a pure-Python oracle.

``oracle_votes`` is the scalar loop the kernel replaced: one partial KSA
per sample, straight from the FMS resolved condition.  The kernel keeps
per-bucket caches (state after the IV rounds, and one parent-prefix
state per key byte), so the differential also drives call orders that
hit and miss those caches and adds samples between calls.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.fms import FmsAttack, weak_iv_for
from repro.crypto.rc4 import rc4_keystream
from repro.crypto.wep import WepKey
from repro.sim.rng import SimRandom


def oracle_votes(samples, a: int, known_prefix: bytes) -> list:
    """Vote table for root-key byte ``a`` over ``(iv, out)`` samples."""
    votes = [0] * 256
    rounds = a + 3
    for iv, out in samples:
        key = iv + known_prefix  # per-packet key prefix, length a+3
        s = list(range(256))
        j = 0
        for i in range(rounds):
            j = (j + s[i] + key[i]) & 0xFF
            s[i], s[j] = s[j], s[i]
        s1 = s[1]
        if s1 < rounds and (s1 + s[s1]) % 256 == rounds:
            votes[(out - j - s[rounds]) & 0xFF] += 1
    return votes


def oracle_search(samples, key_length, verifier, width, max_nodes):
    """The ranked DFS as first written, over oracle vote tables.

    Returns the recovered key and every prefix whose table it asked for,
    in order.
    """
    visited = []
    budget = [max_nodes]

    def search(prefix):
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        a = len(prefix)
        if a == key_length:
            return prefix if verifier(prefix) else None
        visited.append(prefix)
        votes = oracle_votes(samples[a], a, prefix)
        ranked = sorted(range(256), key=lambda b: (-votes[b], b))
        candidates = [b for b in ranked[:width] if votes[b] > 0] or ranked[:1]
        for candidate in candidates:
            found = search(prefix + bytes([candidate]))
            if found is not None:
                return found
            if budget[0] <= 0:
                return None
        return None

    return search(b""), visited


class VisitLog(FmsAttack):
    """Records the prefix of every vote table the search asks for."""

    def __init__(self, key_length: int) -> None:
        super().__init__(key_length=key_length)
        self.visited = []

    def votes_for_byte(self, a, known_prefix, use_numpy=None):
        self.visited.append(known_prefix)
        return super().votes_for_byte(a, known_prefix, use_numpy)


class Recorded:
    """An ``FmsAttack`` plus the samples fed to it, per key byte."""

    def __init__(self, key_length: int) -> None:
        self.attack = VisitLog(key_length)
        self.samples = {a: [] for a in range(key_length)}

    def add(self, a: int, x: int, out: int) -> None:
        iv = weak_iv_for(a, x)
        assert self.attack.add_sample(iv, out)
        self.samples[a].append((iv, out & 0xFF))

    def check(self, a: int, prefix: bytes) -> None:
        assert self.attack.votes_for_byte(a, prefix) == \
            oracle_votes(self.samples[a], a, prefix)


def _keystream_samples(key: WepKey, a: int, xs):
    for x in xs:
        iv = weak_iv_for(a, x)
        yield x, rc4_keystream(key.per_packet_key(iv), 1)[0]


def _recorded(key: WepKey, xs, key_bytes=None) -> Recorded:
    rec = Recorded(len(key.key))
    for a in (range(len(key.key)) if key_bytes is None else key_bytes):
        for x, out in _keystream_samples(key, a, xs):
            rec.add(a, x, out)
    return rec


@settings(max_examples=30, deadline=None)
@given(
    key_bytes=st.binary(min_size=5, max_size=5),
    a=st.integers(min_value=0, max_value=4),
    xs=st.lists(st.integers(0, 255), min_size=1, max_size=120, unique=True),
)
def test_vectorized_equals_scalar(key_bytes, a, xs):
    """40-bit keys, real keystream bytes, the true prefix."""
    key = WepKey(key_bytes)
    rec = _recorded(key, xs, key_bytes=[a])
    rec.check(a, key.key[:a])


@settings(max_examples=20, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=12),
    n=st.sampled_from([1, 10, 256]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_vectorized_equals_scalar_on_noise(a, n, seed):
    """104-bit keys, bucket sizes 1/10/256, arbitrary outputs and a
    random (mostly wrong) prefix: agreement is not tied to real data."""
    rng = SimRandom(seed)
    rec = Recorded(13)
    for x in rng.sample(range(256), n):
        rec.add(a, x, rng.randint(0, 255))
    rec.check(a, rng.bytes(a))


@settings(max_examples=25, deadline=None)
@given(
    key_length=st.sampled_from([5, 13]),
    seed=st.integers(min_value=0, max_value=10_000),
    calls=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 3), st.integers(0, 3)),
        min_size=1, max_size=40),
)
def test_interleaved_calls_hit_and_miss_the_sibling_cache(key_length, seed,
                                                          calls):
    """Any order of (byte, prefix) requests: siblings sharing a parent
    prefix, parent switches, other bytes in between, repeats.

    Prefix bytes come from a 4-symbol alphabet so parents recur often
    (cache hits) and change often (cache misses).
    """
    rng = SimRandom(seed)
    key = WepKey(rng.bytes(key_length))
    rec = _recorded(key, rng.sample(range(256), 24))
    alphabet = rng.bytes(4)
    for a, parent_sym, last_sym in calls:
        a %= key_length
        prefix = bytes(alphabet[(parent_sym + i) % 4] for i in range(a - 1))
        prefix = (prefix + bytes([alphabet[last_sym]]))[:a]
        rec.check(a, prefix)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    extra=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 255)),
                   min_size=1, max_size=30),
)
def test_add_sample_after_recover_invalidates_the_kernel(seed, extra):
    """Samples added after a search must show in the next vote tables."""
    rng = SimRandom(seed)
    key = WepKey(rng.bytes(5))
    rec = _recorded(key, rng.sample(range(256), 12))
    rec.attack.recover(verifier=lambda k: False, search_width=3,
                       max_nodes=200)
    for a, x in extra:
        rec.add(a, x, rng.randint(0, 255))
    for a in range(5):
        rec.check(a, key.key[:a])
        rec.check(a, rng.bytes(a))


@settings(max_examples=25, deadline=None)
@given(
    key_length=st.sampled_from([5, 13]),
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=40),
    noise=st.booleans(),
    width=st.integers(min_value=0, max_value=5),
    max_nodes=st.integers(min_value=1, max_value=120),
)
def test_search_visits_the_oracle_nodes(key_length, seed, n, noise, width,
                                        max_nodes):
    """The ranked search asks for the same tables, in the same order, and
    recovers the same key as the full-sort search over oracle tables,
    ties and all-zero tables included."""
    rng = SimRandom(seed)
    key = WepKey(rng.bytes(key_length))
    rec = Recorded(key_length)
    for a in range(key_length):
        for x, out in _keystream_samples(key, a, rng.sample(range(256), n)):
            rec.add(a, x, rng.randint(0, 255) if noise else out)

    def verifier(candidate):
        return candidate == key.key

    found = rec.attack.recover(verifier=verifier, search_width=width,
                               max_nodes=max_nodes)
    assert (found, rec.attack.visited) == oracle_search(
        rec.samples, key_length, verifier, width, max_nodes)


def test_empty_bucket():
    """A byte with no samples (bucket size 0) votes for nothing."""
    for key_length in (5, 13):
        rec = _recorded(WepKey(bytes(range(1, key_length + 1))), range(10),
                        key_bytes=[0])
        for a in range(1, key_length):
            assert rec.attack.votes_for_byte(a, bytes(a)) == [0] * 256
        rec.check(0, b"")


def test_prefix_length_validated():
    rec = _recorded(WepKey(b"AAAAA"), range(10), key_bytes=[2])
    with pytest.raises(ValueError):
        rec.attack.votes_for_byte(2, b"x")


def test_recovery_works_through_numpy_path():
    """Full key recovery from full 256-sample buckets."""
    key = WepKey.from_passphrase("SECRET", bits=40)
    rec = _recorded(key, range(256))
    assert rec.attack.recover() == key.key


def test_numpy_path_is_faster_on_large_buckets():
    """The point of the kernel: faster than the oracle at 256 samples.

    Every call uses a new parent prefix, so the kernel pays its full
    cost (no sibling-cache hits) on each one.
    """
    key = WepKey(b"BENCH")
    rec = _recorded(key, range(256), key_bytes=[4])
    prefixes = [bytes([p, 1, 2, 3]) for p in range(20)]

    def timed(votes):
        start = time.perf_counter()
        for prefix in prefixes:
            votes(prefix)
        return time.perf_counter() - start

    kernel = lambda prefix: rec.attack.votes_for_byte(4, prefix)  # noqa: E731
    oracle = lambda prefix: oracle_votes(rec.samples[4], 4, prefix)  # noqa: E731
    kernel(b"warm")  # build the IV-round state outside the timing
    assert timed(kernel) < timed(oracle)
