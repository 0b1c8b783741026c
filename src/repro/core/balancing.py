"""Load balancing of iteration-chunk clusters (Fig. 5, Stage 2).

Greedy eviction from over-full to under-full clusters:

* limits: ``ULim = mean + BThres`` and ``LLim = mean - BThres`` where
  ``BThres`` is the balance threshold expressed in iterations;
* while some cluster exceeds ``ULim``, iteration chunks are evicted from
  the largest cluster into the smallest, choosing chunks by descending
  dot product of their tag with the recipient's *support* (the distinct
  chunks it touches) — move the work where its data already is, the
  paper's greedy criterion;
* an eviction never drops the donor below ``LLim``; a recipient is
  filled to the mean and then the next-smallest takes over;
* when no whole chunk fits, a chunk is split so the moved piece fits
  (the paper: "An iteration chunk is split according to the balance
  threshold requirements prior to the eviction process if no eligible
  iteration chunk is found").

The paper's pseudo-code only evicts into clusters below ``LLim``, which
deadlocks when one donor is grossly over-full and everybody else sits
between the limits (a routine outcome of the snowballing greedy merge);
we instead fill the *smallest* cluster — same greedy intent, guaranteed
progress.

Chunk-tag dot products are computed in bulk against a cached
``(pool, r)`` tag matrix, one BLAS matvec per donor/recipient pairing.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.core.chunking import IterationChunk
from repro.telemetry import get_registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.clustering import Cluster

__all__ = ["balance_clusters", "imbalance", "TagMatrix"]


def imbalance(sizes: list[int]) -> float:
    """Max relative deviation from the mean iteration count."""
    if not sizes:
        return 0.0
    mean = sum(sizes) / len(sizes)
    if mean == 0:
        return 0.0
    return max(abs(s - mean) for s in sizes) / mean


class TagMatrix:
    """A growable dense ``(len(pool), r)`` matrix of chunk tag vectors.

    Kept in sync with the chunk pool so eviction scoring is one
    fancy-indexed matmul instead of per-chunk Python loops.  ``rows``,
    when given, holds the pool's tag rows already (e.g. the chunk set's
    ``incidence``) and is copied instead of re-reading every tag.
    """

    def __init__(
        self, pool: list[IterationChunk], r: int, rows: np.ndarray | None = None
    ):
        self.r = r
        self._rows = np.zeros((max(len(pool), 16), r), dtype=np.float64)
        self._n = 0
        if rows is None:
            for chunk in pool:
                self.append(chunk)
            return
        if rows.shape != (len(pool), r):
            raise ValueError(f"tag rows must be ({len(pool)}, {r}), got {rows.shape}")
        self._rows[: len(pool)] = rows
        self._n = len(pool)

    def append(self, chunk: IterationChunk) -> None:
        if self._n == len(self._rows):
            grown = np.zeros((2 * len(self._rows), self.r), dtype=np.float64)
            grown[: self._n] = self._rows[: self._n]
            self._rows = grown
        row = self._rows[self._n]
        for c in chunk.chunk_ids:
            row[c] = 1.0
        self._n += 1

    def row(self, index: int) -> np.ndarray:
        if not 0 <= index < self._n:
            raise IndexError(f"tag row {index} out of range")
        return self._rows[index]

    def rows(self, members) -> np.ndarray:
        """The members' tag rows, one per member (a copy)."""
        return self._rows[np.asarray(members, dtype=np.int64)]

    def dots(self, members: list[int], signature: np.ndarray) -> np.ndarray:
        """Dot product of each member's tag with a cluster signature."""
        return self.rows(members) @ signature

    def __len__(self) -> int:
        return self._n


def balance_clusters(
    clusters: "list[Cluster]",
    pool: list[IterationChunk],
    balance_threshold: float,
    r: int,
    tags: TagMatrix | None = None,
) -> None:
    """Balance cluster iteration counts in place (Fig. 5, Stage 2)."""
    k = len(clusters)
    if k < 2:
        return
    tags = tags if tags is not None else TagMatrix(pool, r)
    if len(tags) != len(pool):
        raise ValueError("tag matrix out of sync with pool")
    total = sum(c.size for c in clusters)
    mean = total / k
    bthres = balance_threshold * mean
    ulim = mean + bthres
    llim = mean - bthres

    try:
        # Every donor pass strictly shrinks the largest cluster or stops,
        # so the cap is a safety net only.
        for _ in range(8 * (len(pool) + k) + 16):
            donor = max(clusters, key=lambda c: c.size)
            if donor.size <= ulim:
                return
            recipient = min(clusters, key=lambda c: c.size)
            if recipient is donor:
                return
            moved = _drain(donor, recipient, pool, tags, llim, ulim, mean)
            if not moved and not _split_and_evict(
                donor, recipient, pool, tags, llim, ulim
            ):
                return  # no legal move exists (chunk granularity limit)
    finally:
        get_registry().histogram("balancing.imbalance").observe(
            imbalance([c.size for c in clusters])
        )


def _drain(
    donor: "Cluster",
    recipient: "Cluster",
    pool: list[IterationChunk],
    tags: TagMatrix,
    llim: float,
    ulim: float,
    mean: float,
) -> bool:
    """Move best-affinity chunks donor -> recipient until one side is done.

    The recipient is filled to the mean (not ULim) so the donor's excess
    spreads over several recipients instead of ping-ponging.  The moves
    are picked on sizes alone, then applied at once: one member filter,
    one signature update per side (exact: sums of 0/1 rows).
    """
    if len(donor.members) < 2:
        return False
    support = (recipient.signature > 0).astype(np.float64)
    order = np.argsort(-tags.dots(donor.members, support), kind="stable")
    donor_size, recipient_size = donor.size, recipient.size
    moved: list[int] = []
    for i in order.tolist():
        if donor_size <= ulim or recipient_size >= mean:
            break
        if len(donor.members) - len(moved) < 2:
            break
        m = donor.members[i]
        s = pool[m].size
        if donor_size - s < llim or recipient_size + s > ulim:
            continue
        moved.append(m)
        donor_size -= s
        recipient_size += s
    if not moved:
        return False
    get_registry().counter("balancing.moves").inc(len(moved))
    gone = set(moved)
    donor.members[:] = [m for m in donor.members if m not in gone]
    v = tags.rows(moved).sum(axis=0)
    donor.signature -= v
    donor.size = donor_size
    recipient.members.extend(moved)
    recipient.signature += v
    recipient.size = recipient_size
    return True


def _split_and_evict(
    donor: "Cluster",
    recipient: "Cluster",
    pool: list[IterationChunk],
    tags: TagMatrix,
    llim: float,
    ulim: float,
) -> bool:
    """Split a donor chunk so the moved piece keeps both sides in limits."""
    # The piece size s must satisfy: donor.size - s >= llim  and
    # recipient.size + s <= ulim  and 1 <= s < chunk.size.
    s_max = min(donor.size - llim, ulim - recipient.size)
    piece = int(math.floor(s_max))
    if piece < 1:
        return False
    support = (recipient.signature > 0).astype(np.float64)
    dots = tags.dots(donor.members, support)
    order = np.argsort(-dots, kind="stable")
    best_m = None
    for i in order:
        m = donor.members[int(i)]
        if pool[m].size > piece:
            best_m = m
            break
    if best_m is None:
        # Largest chunk too small to split that big a piece off — shrink
        # the piece to (largest - 1) so a split is still possible.
        best_m = max(donor.members, key=lambda m: pool[m].size)
        if pool[best_m].size < 2:
            return False
        piece = pool[best_m].size - 1
        if donor.size - piece < llim or recipient.size + piece > ulim:
            return False
    keep, move = pool[best_m].split(pool[best_m].size - piece)
    get_registry().counter("balancing.splits").inc()
    pool[best_m] = keep
    pool.append(move)
    tags.append(move)
    moved_idx = len(pool) - 1
    # The donor momentarily holds both pieces (same tag counted twice).
    donor.members.append(moved_idx)
    donor.signature += tags.row(moved_idx)
    _move(moved_idx, donor, recipient, pool, tags)
    return True


def _move(
    m: int,
    donor: "Cluster",
    recipient: "Cluster",
    pool: list[IterationChunk],
    tags: TagMatrix,
) -> None:
    get_registry().counter("balancing.moves").inc()
    donor.members.remove(m)
    v = tags.row(m)
    donor.signature -= v
    donor.size -= pool[m].size
    recipient.members.append(m)
    recipient.signature += v
    recipient.size += pool[m].size
