"""LRU stack (reuse) distance analysis.

The *reuse distance* of an access is the number of distinct chunks
referenced since the previous access to the same chunk (∞ for first
touches).  Mattson's classic result: an LRU cache of capacity ``C``
hits exactly the accesses with reuse distance ≤ C — so one pass over a
trace yields the hit rate of *every* capacity at once.  We use it to
explain which revisit distances a mapping converts into cache hits.

The computation uses a Fenwick (binary indexed) tree over last-access
positions: O(N log N) overall, no per-access Python scanning beyond the
tree walks.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive

__all__ = ["reuse_distance_profile", "ReuseProfile"]


class _Fenwick:
    """Binary indexed tree over positions, counting live markers."""

    __slots__ = ("tree", "n")

    def __init__(self, n: int):
        self.n = n
        self.tree = np.zeros(n + 1, dtype=np.int64)

    def add(self, i: int, delta: int) -> None:
        i += 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        """Sum of markers at positions < i."""
        total = 0
        while i > 0:
            total += self.tree[i]
            i -= i & (-i)
        return int(total)


class ReuseProfile:
    """Reuse-distance histogram of one access trace."""

    def __init__(self, distances: np.ndarray, cold_misses: int, length: int):
        self.distances = distances  # finite distances only, one per reuse
        self.cold_misses = int(cold_misses)
        self.length = int(length)

    @property
    def num_reuses(self) -> int:
        return int(len(self.distances))

    def hit_rate(self, capacity: int) -> float:
        """Hit rate of an LRU cache with ``capacity`` chunks (Mattson)."""
        check_positive("capacity", capacity)
        if self.length == 0:
            return 0.0
        hits = int(np.count_nonzero(self.distances < capacity))
        return hits / self.length

    def miss_rate(self, capacity: int) -> float:
        return 1.0 - self.hit_rate(capacity)

    def percentile(self, q: float) -> float:
        """q-th percentile of the finite reuse distances."""
        if self.num_reuses == 0:
            return float("inf")
        return float(np.percentile(self.distances, q))

    def __repr__(self) -> str:
        return (
            f"ReuseProfile(accesses={self.length}, reuses={self.num_reuses}, "
            f"cold={self.cold_misses})"
        )


def reuse_distance_profile(trace: np.ndarray) -> ReuseProfile:
    """Compute the LRU stack distance of every access in a trace.

    ``trace`` is a 1-D vector of chunk ids.  Returns the profile with
    one finite distance per re-access and the cold-miss count.
    """
    t = np.asarray(trace, dtype=np.int64)
    if t.ndim != 1:
        raise ValueError("trace must be a 1-D chunk-id vector")
    n = len(t)
    if n == 0:
        return ReuseProfile(np.empty(0, dtype=np.int64), 0, 0)
    fen = _Fenwick(n)
    last_pos: dict[int, int] = {}
    distances = []
    cold = 0
    for pos in range(n):
        chunk = int(t[pos])
        prev = last_pos.get(chunk)
        if prev is None:
            cold += 1
        else:
            # Distinct chunks touched strictly after prev: live markers in
            # (prev, pos).  Markers sit at each chunk's last position.
            distances.append(fen.prefix(pos) - fen.prefix(prev + 1))
            fen.add(prev, -1)
        fen.add(pos, +1)
        last_pos[chunk] = pos
    return ReuseProfile(np.asarray(distances, dtype=np.int64), cold, n)
