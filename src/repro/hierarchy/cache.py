"""A single storage cache holding data chunks.

Capacity is counted in chunks (the paper manages storage caches at the
granularity of one data chunk == one stripe, §5.1).  The cache delegates
victim selection to a pluggable :class:`ReplacementPolicy` and keeps its
own :class:`CacheStats`.
"""

from __future__ import annotations

from repro.hierarchy.policies import ReplacementPolicy, make_policy
from repro.hierarchy.stats import CacheStats
from repro.util.validation import check_positive

__all__ = ["ChunkCache"]


class ChunkCache:
    """A bounded chunk cache with pluggable replacement.

    Parameters
    ----------
    capacity_chunks:
        Maximum number of resident chunks.
    policy:
        A policy instance or a policy name (``"lru"`` by default).
    name:
        Identifier used in reports (e.g. ``"L2[io3]"``).
    """

    __slots__ = ("capacity", "policy", "stats", "name")

    def __init__(
        self,
        capacity_chunks: int,
        policy: ReplacementPolicy | str = "lru",
        name: str = "cache",
    ):
        self.capacity = check_positive("capacity_chunks", capacity_chunks)
        self.policy = (
            make_policy(policy, self.capacity) if isinstance(policy, str) else policy
        )
        self.stats = CacheStats()
        self.name = name

    # -- core operations ---------------------------------------------------------

    def lookup(self, chunk_id: int, cold: bool = False) -> bool:
        """Access a chunk: True on hit (recency updated), False on miss.

        A miss does *not* insert the chunk — the hierarchy walk decides
        when to fill, so fill policy stays in one place.  ``cold`` marks
        a miss as compulsory (first-ever request to the chunk) for the
        miss-classification statistics.
        """
        if chunk_id in self.policy:
            self.policy.touch(chunk_id)
            self.stats.record_hit()
            return True
        self.stats.record_miss(cold=cold)
        return False

    def fill(self, chunk_id: int) -> int | None:
        """Bring a chunk in, evicting if full; returns the victim id or None."""
        if chunk_id in self.policy:
            return None  # already resident (e.g. raced fill); nothing to do
        victim = None
        if len(self.policy) >= self.capacity:
            victim = self.policy.evict()
            self.stats.record_eviction()
        self.policy.insert(chunk_id)
        self.stats.record_fill()
        return victim

    def contains(self, chunk_id: int) -> bool:
        """Residency probe without stats or recency side effects."""
        return chunk_id in self.policy

    def reset(self) -> None:
        """Empty the cache and zero the statistics."""
        self.policy.clear()
        self.stats.reset()

    # -- introspection -----------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return len(self.policy)

    def resident_chunks(self) -> list[int]:
        return self.policy.resident()

    def __len__(self) -> int:
        return len(self.policy)

    def __contains__(self, chunk_id: int) -> bool:
        return chunk_id in self.policy

    def __repr__(self) -> str:
        return (
            f"ChunkCache({self.name!r}, {self.occupancy}/{self.capacity} chunks, "
            f"policy={self.policy.name})"
        )
