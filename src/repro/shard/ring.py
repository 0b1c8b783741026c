"""Consistent hashing with virtual nodes over the experiment-key space.

Keys are :class:`~repro.exec.keys.ExperimentKey` digests — 64 hex chars
of SHA-256 — and the ring lives in the same space: each member
contributes ``vnodes`` points at ``sha256("<member>#<i>")``, and a key
belongs to the first member point at or clockwise-after the key's own
point (the digest's top 64 bits).  Classic consistent hashing
(Karger et al.), the scheme icarus's ``ShardedCache`` approximates with
modulo hashing — the ring form is what buys *minimal movement*:

* adding a member moves only the keys that now fall to it (an expected
  ``1/(N+1)`` of the keyspace) and moves them *only* onto the new
  member — no third-party churn;
* removing a member moves only the keys it owned, redistributing them
  to the survivors; every other key keeps its owner bit-for-bit.

Those two properties are exactly what makes the warm-handoff path
cheap (:mod:`repro.shard.partition` relocates ~1/N of the store
entries, never all of them) and are pinned by Hypothesis property
tests.  Routing is a pure function of ``(members, vnodes, digest)`` —
no insertion-order or process state — so the router, the rebalancer
and any test agree on placement without coordination.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Iterable

__all__ = ["DEFAULT_VNODES", "HashRing"]

#: Virtual nodes per member.  128 points keeps the worst member's
#: keyspace share within roughly ±35% of fair at small N (the property
#: test bound) while membership changes stay O(vnodes · log points).
DEFAULT_VNODES = 128


def _digest_point(digest: str) -> int:
    """A key digest's position on the ring: its top 64 bits."""
    return int(digest[:16], 16)


def _member_points(member: str, vnodes: int) -> list[int]:
    return [
        int.from_bytes(
            hashlib.sha256(f"{member}#{i}".encode("utf-8")).digest()[:8], "big"
        )
        for i in range(vnodes)
    ]


class HashRing:
    """The membership → keyspace assignment, deterministically.

    Members are shard ids (opaque non-empty strings).  ``route()``
    takes a hex SHA-256 digest and returns the owning member; rings
    with equal ``(members, vnodes)`` route identically regardless of
    the order members joined or left.
    """

    def __init__(self, members: Iterable[str] = (), vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError("vnodes must be at least 1")
        self.vnodes = vnodes
        self._points: dict[str, list[int]] = {}
        #: Sorted (point, member) pairs; ties break lexicographically,
        #: the same on every host.
        self._ring: list[tuple[int, str]] = []
        for member in members:
            self.add(member)

    # -- membership ---------------------------------------------------------------

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(sorted(self._points))

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, member: str) -> bool:
        return member in self._points

    def add(self, member: str) -> None:
        if not member:
            raise ValueError("member id must be non-empty")
        if member in self._points:
            raise ValueError(f"member {member!r} already on the ring")
        self._points[member] = _member_points(member, self.vnodes)
        self._rebuild()

    def remove(self, member: str) -> None:
        try:
            del self._points[member]
        except KeyError:
            raise ValueError(f"member {member!r} not on the ring") from None
        self._rebuild()

    def _rebuild(self) -> None:
        self._ring = sorted(
            (point, member)
            for member, points in self._points.items()
            for point in points
        )

    # -- routing ------------------------------------------------------------------

    def route(self, digest: str) -> str:
        """The member owning ``digest`` (a hex SHA-256 string)."""
        if not self._ring:
            raise ValueError("ring has no members")
        point = _digest_point(digest)
        # First ring point at or clockwise-after the key point, wrapping
        # past the top of the space back to the first point.
        index = bisect_left(self._ring, (point, ""))
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]

    def describe(self) -> dict:
        """Ring summary for /statusz: members, vnodes, point counts."""
        return {
            "members": list(self.members),
            "vnodes": self.vnodes,
            "points": len(self._ring),
        }

    def __repr__(self) -> str:
        return f"HashRing({list(self.members)}, vnodes={self.vnodes})"
