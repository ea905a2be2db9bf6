"""Deterministic random streams.

A single :class:`SimRandom` is owned by the simulator; components that
need independent randomness ask for a named *substream* so that adding
or removing one consumer never perturbs the draws seen by another.
Substream seeds are derived by hashing ``(parent_seed, name)`` with
SHA-256 from the standard library, which is stable across Python
versions (unlike ``hash()``).
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

__all__ = ["SimRandom"]

T = TypeVar("T")


def _derive_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SimRandom:
    """A seeded random stream with protocol-simulation helpers."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._random = random.Random(self.seed)

    # ------------------------------------------------------------------
    # stream management
    # ------------------------------------------------------------------
    def substream(self, name: str) -> "SimRandom":
        """Return an independent stream derived from this one by ``name``."""
        return SimRandom(_derive_seed(self.seed, name))

    def getstate(self):
        """The underlying generator state (an opaque, comparable value).

        Used by the kernel-equivalence differential harness to assert
        that two runs consumed *exactly* the same draws — equal results
        with a diverged stream position would still be a caching bug.
        """
        return self._random.getstate()

    # ------------------------------------------------------------------
    # basic draws (thin, documented wrappers around random.Random)
    # ------------------------------------------------------------------
    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def uniform(self, a: float, b: float) -> float:
        """Uniform float in [a, b]."""
        return self._random.uniform(a, b)

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b] inclusive."""
        return self._random.randint(a, b)

    def randrange(self, start: int, stop: int | None = None) -> int:
        return self._random.randrange(start, stop)

    def sample(self, population: Sequence[T], k: int) -> list[T]:
        return self._random.sample(population, k)

    # ------------------------------------------------------------------
    # protocol helpers
    # ------------------------------------------------------------------
    def bernoulli(self, p: float) -> bool:
        """True with probability ``p`` (clamped to [0, 1])."""
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return self._random.random() < p

    def bytes(self, n: int) -> bytes:
        """``n`` uniformly random bytes."""
        return self._random.randbytes(n)
