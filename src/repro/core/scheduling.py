"""Cache-hierarchy-conscious iteration-chunk scheduling (paper Fig. 15).

After distribution, the iteration chunks assigned to each client are
*ordered*.  Reuse has two dimensions (§5.4):

* **vertical** (weight β): the next chunk on a client should share data
  with the chunk just scheduled on the same client (private-cache reuse);
* **horizontal** (weight α): chunks scheduled in the same round on
  clients that share an I/O-level cache should share data (shared-cache
  reuse).

Clients are scheduled group-by-group, one group per I/O-level (leaf
parent) cache, in rounds:

* the first client of a group opens round one with the chunk touching
  the fewest data chunks;
* a later client's first chunk maximises ``α · (Λa • Λx)`` with the last
  chunk placed on the previous client;
* in later rounds the first client catches up to the last client's
  iteration count using ``β · (Λa • Λy)`` against its own last chunk,
  and the others catch up to their left neighbour using
  ``α · (Λa • Λx) + β · (Λa • Λy)``;
* iteration counts are kept balanced circularly (each client schedules
  until it reaches/just exceeds its reference neighbour's count).

A progress guard force-schedules one chunk on the emptiest client when a
whole round adds nothing (e.g. all counts already equal), which the
paper's pseudo-code leaves implicit.
"""

from __future__ import annotations

import numpy as np

from repro.core.balancing import TagMatrix
from repro.core.chunking import IterationChunk
from repro.core.clustering import DistributionResult
from repro.hierarchy.topology import CacheHierarchy, CacheNode
from repro.telemetry import get_registry

__all__ = ["schedule_clients", "schedule_group"]


def _io_level_groups(hierarchy: CacheHierarchy) -> list[list[int]]:
    """Clients grouped by their leaf-parent (I/O-level) cache node."""
    groups: list[list[int]] = []

    def visit(node: CacheNode) -> None:
        if node.children and all(ch.is_leaf for ch in node.children):
            groups.append(sorted(ch.client_id for ch in node.children))  # type: ignore[misc]
            return
        for ch in node.children:
            visit(ch)

    root = hierarchy.root
    if root.is_leaf:  # degenerate single-client tree
        return [[root.client_id]]  # type: ignore[list-item]
    visit(root)
    return groups


def schedule_group(
    client_chunks: list[list[int]],
    pool: list[IterationChunk],
    alpha: float,
    beta: float,
    tags: TagMatrix | None = None,
) -> list[list[int]]:
    """Schedule one I/O-cache group of clients (Fig. 15 inner loop).

    ``client_chunks[i]`` is the unordered pool-index set of the group's
    i-th client; the return value is the ordered schedules.  ``tags``
    holds the pool's tag rows (clustering keeps one in sync with the
    pool); it is built from the pool when omitted.

    Each pick scores all of a client's unscheduled chunks at once:
    ``Λa • Λx`` is one matvec of 0/1 tag rows, exact in float64, and the
    weighted score is evaluated in the paper's operation order.  Members
    are held in ascending pool-index order, so ``argmax``/``argmin``
    break ties by lowest pool index.
    """
    n = len(client_chunks)
    members = [np.sort(np.asarray(c, dtype=np.int64)) for c in client_chunks]
    if tags is None:
        tags = TagMatrix(pool, pool[0].nbits if pool else 1)
    if len(tags) != len(pool):
        raise ValueError("tag matrix out of sync with pool")
    rows = [tags.rows(idx) for idx in members]
    popcounts = [r.sum(axis=1) for r in rows]
    alive = [np.ones(len(idx), dtype=bool) for idx in members]
    left = [len(idx) for idx in members]
    schedules: list[list[int]] = [[] for _ in range(n)]
    counts = [0] * n

    def take(i: int, k: int) -> None:
        alive[i][k] = False
        left[i] -= 1
        m = int(members[i][k])
        schedules[i].append(m)
        counts[i] += pool[m].size

    def shared(i: int, m: int) -> np.ndarray:
        """``Λa • Λm`` for every member a of client i."""
        return rows[i] @ tags.row(m)

    def best(i: int, score: np.ndarray) -> int:
        # max score; ties by lowest pool index for determinism
        return int(np.argmax(np.where(alive[i], score, -np.inf)))

    def fewest(i: int) -> int:
        # Fewest data chunks (least "1" bits), ties by lowest pool index.
        return int(np.argmin(np.where(alive[i], popcounts[i], np.inf)))

    while any(left):
        progressed = False
        for i in range(n):
            if not left[i]:
                continue
            if i == 0 and not schedules[i]:
                take(i, fewest(i))
                progressed = True
            elif i > 0 and not schedules[i]:
                prev = schedules[i - 1]
                if prev:
                    take(i, best(i, alpha * shared(i, prev[-1])))
                else:  # previous client had nothing at all
                    take(i, fewest(i))
                progressed = True
            elif i == 0:
                # Catch up circularly to the last client of the previous round.
                while left[i] and counts[i] < counts[n - 1]:
                    take(i, best(i, beta * shared(i, schedules[i][-1])))
                    progressed = True
            else:
                while left[i] and counts[i] < counts[i - 1]:
                    y = shared(i, schedules[i][-1])
                    prev = schedules[i - 1]
                    x = shared(i, prev[-1]) if prev else y
                    take(i, best(i, alpha * x + beta * y))
                    progressed = True
        if not progressed:
            # All catch-up conditions already met (equal counts) but chunks
            # remain: force one onto the least-loaded non-empty client.
            get_registry().counter("scheduling.forced").inc()
            i = min((j for j in range(n) if left[j]), key=lambda j: counts[j])
            if schedules[i]:
                take(i, best(i, beta * shared(i, schedules[i][-1])))
            else:
                take(i, fewest(i))
    return schedules


def schedule_clients(
    distribution: DistributionResult,
    hierarchy: CacheHierarchy,
    alpha: float = 0.5,
    beta: float = 0.5,
) -> dict[int, list[int]]:
    """Order every client's iteration chunks (Fig. 15, all groups).

    Returns ``{client_id: [pool indices in execution order]}``.  The
    paper's experiments use α = β = 0.5 (equal weights win, §5.4).
    """
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be non-negative")
    out: dict[int, list[int]] = {}
    groups = _io_level_groups(hierarchy)
    get_registry().counter("scheduling.groups").inc(len(groups))
    for group in groups:
        chunks = [distribution.assignment[c] for c in group]
        scheduled = schedule_group(
            chunks, distribution.pool, alpha, beta, distribution.tags
        )
        for client, order in zip(group, scheduled):
            out[client] = order
    return out
