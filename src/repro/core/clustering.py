"""Hierarchical iteration distribution (paper Fig. 5).

The storage cache hierarchy tree is walked from the root level by level;
at each tree node the current set of iteration chunks is partitioned
into as many clusters as the node has children (Stage 1), the clusters
are load balanced within the balance threshold (Stage 2,
:mod:`~repro.core.balancing`), and each cluster recurses into the
corresponding child.  After the leaf level every client node owns one
cluster of iteration chunks.

Stage 1 specifics, following the paper:

* a cluster's *signature* accumulates its member tags ("bitwise sum");
  merge decisions use the signature's support — the OR of member tags —
  so the dot product ``αp • αq`` counts distinct shared data chunks
  (see :func:`_merge_down` for why the support reading is the one
  consistent with the paper's Fig. 9);
* while there are too many clusters, the pair maximising that dot
  product is merged;
* if there are too *few* clusters, the largest cluster is split until
  the count matches (splitting a single iteration chunk in half when a
  cluster has only one member).

Merging runs on arrays: the initial clusters are rows of a float32
support matrix gathered from the tag rows (used columns only), each
merge step is one matvec against it plus an update of a per-row
best-partner cache (valid by the monotonicity of OR-dots), and
``Cluster`` objects are built only for the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.balancing import TagMatrix, balance_clusters
from repro.core.chunking import IterationChunk, IterationChunkSet
from repro.core.graph import AffinityGraph
from repro.hierarchy.topology import CacheHierarchy, CacheNode
from repro.telemetry import get_registry
from repro.util.validation import check_in_range

__all__ = [
    "Cluster",
    "DistributionResult",
    "distribute_iterations",
    "flat_distribution",
    "cluster_into",
]


@dataclass
class Cluster:
    """A cluster of iteration chunks during/after distribution.

    ``members`` index into the shared chunk *pool* (which can grow when
    load balancing splits chunks).  ``signature`` holds per-data-chunk
    member-tag *counts* (so eviction can subtract exactly); merge and
    eviction decisions use its support, ``signature > 0``.  ``size`` is
    the total iteration count.
    """

    members: list[int]
    signature: np.ndarray
    size: int

    def validate(self, pool: list[IterationChunk]) -> None:
        sig = np.zeros_like(self.signature)
        size = 0
        for m in self.members:
            size += pool[m].size
            for c in pool[m].chunk_ids:
                sig[c] += 1
        if size != self.size or not np.array_equal(sig, self.signature):
            raise ValueError("cluster bookkeeping out of sync with pool")


@dataclass
class DistributionResult:
    """Output of Fig. 5: per-client iteration-chunk assignments.

    ``pool`` is the final chunk list (including split-off chunks);
    ``assignment[c]`` lists pool indices owned by client ``c``;
    ``tags`` holds the pool's tag rows, kept in sync through splits.
    """

    pool: list[IterationChunk]
    assignment: dict[int, list[int]]
    chunk_set: IterationChunkSet
    tags: TagMatrix
    #: Seconds the distribution took to compute, when the caller timed
    #: it (:meth:`repro.core.mapper.InterProcessorMapper.distribute`).
    elapsed_s: float = field(default=0.0, compare=False)

    @property
    def num_clients(self) -> int:
        return len(self.assignment)

    def client_iterations(self, client: int) -> np.ndarray:
        """All iteration ranks assigned to a client (chunk order, then rank)."""
        ids = self.assignment[client]
        if not ids:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([self.pool[i].iterations for i in ids])

    def iteration_counts(self) -> dict[int, int]:
        return {
            c: sum(self.pool[i].size for i in ids)
            for c, ids in self.assignment.items()
        }

    def validate_partition(self) -> None:
        """Assert every nest iteration lands on exactly one client."""
        all_ranks = [self.client_iterations(c) for c in sorted(self.assignment)]
        ranks = np.concatenate(all_ranks) if all_ranks else np.empty(0, np.int64)
        total = self.chunk_set.nest.num_iterations
        if len(ranks) != total or len(np.unique(ranks)) != total:
            raise ValueError(
                f"assignment is not a partition: {len(ranks)} ranks "
                f"({len(np.unique(ranks))} unique) vs {total} iterations"
            )


def _union_find_groups(n: int, pairs: set[tuple[int, int]]) -> list[list[int]]:
    """Group indices 0..n-1 by the forced-together pairs (order-preserving)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[k] for k in sorted(groups)]


def cluster_into(
    member_ids: list[int],
    pool: list[IterationChunk],
    num_clusters: int,
    r: int,
    forced_pairs: set[tuple[int, int]] | None = None,
    tags: TagMatrix | None = None,
    level: str = "",
) -> list[Cluster]:
    """Stage 1 of Fig. 5: partition chunks into exactly ``num_clusters``.

    ``forced_pairs`` (pool-index pairs) are pre-merged — the
    infinite-edge-weight dependence treatment of §5.4.  May split chunks
    (appending to ``pool``) when there are fewer chunks than clusters.
    ``level`` labels the telemetry counters with the hierarchy level
    being partitioned (``clustering.merges{level=L2}``).
    """
    if num_clusters <= 0:
        raise ValueError("num_clusters must be positive")
    if not member_ids:
        raise ValueError("cannot cluster an empty chunk set")
    tags = tags if tags is not None else TagMatrix(pool, r)

    # Initial clusters: singletons, or union-find groups of forced pairs.
    if forced_pairs:
        relevant = {m: k for k, m in enumerate(member_ids)}
        local_pairs = {
            (relevant[a], relevant[b])
            for a, b in forced_pairs
            if a in relevant and b in relevant
        }
        groups = _union_find_groups(len(member_ids), local_pairs)
        initial = [[member_ids[i] for i in g] for g in groups]
    else:
        initial = [[m] for m in member_ids]

    registry = get_registry()
    if len(initial) > num_clusters:
        registry.counter("clustering.merges", level=level or "all").inc(
            len(initial) - num_clusters
        )
        clusters = _merge_down(initial, pool, tags, num_clusters)
    else:
        clusters = [_make_cluster(members, pool, r, tags) for members in initial]
    if len(clusters) < num_clusters:
        registry.counter("clustering.splits", level=level or "all").inc(
            num_clusters - len(clusters)
        )
    while len(clusters) < num_clusters:
        _split_largest(clusters, pool, r, tags)
    return clusters


def _merge_down(
    members: list[list[int]],
    pool: list[IterationChunk],
    tags: TagMatrix,
    target: int,
) -> list[Cluster]:
    """Greedy pairwise merging by maximal signature dot product.

    ``members`` lists the initial clusters' pool indices (singletons or
    forced groups); the lists are merged in place.  The loop carries
    only arrays — supports, sizes, the best-partner cache — and
    ``Cluster`` objects, with their count signatures, are built once for
    the ``target`` survivors, ordered by smallest member pool index.

    A cluster's merge signature is the *support* (bitwise OR) of its
    member tags: the dot product then counts the distinct data chunks
    two clusters share.  (A count-weighted signature would snowball
    through any data chunk every iteration touches — e.g. the ``A[i%d]``
    window of Fig. 6 — and merge unrelated clusters, contradicting the
    paper's own Fig. 9 outcome.)

    Supports live in an ``(n, w + 1)`` float32 matrix ``S``: the ``w``
    data chunks some member touches (unused columns add nothing to a
    dot), plus a sentinel column that is 1 on a live row and ``-inf``
    once the row is absorbed.  Every dot is an integer of at most
    ``w + 1``, exact in float32 in any summation order while ``w`` is
    below 2**24.  The sentinel shifts every live dot by the same +1, so
    no comparison changes, and it puts every dead column at ``-inf``.

    The pairwise dot products ``S @ S.T`` are needed once, to seed a
    per-row best-partner cache ``best``/``bestw``; after that every dot
    a step reads is at the merged cluster ``p``, which is the fresh
    ``row = S @ S[p]``, so no pairwise matrix is kept.  The cache keeps
    one invariant: ``bestw`` holds each live row's exact maximum dot.
    OR-dots are monotone under support growth, so after merging q into
    p that maximum only moves where column p beats it: the update is one
    ``row > bestw`` repoint and one ``np.maximum``.  A row whose partner
    was q keeps its value, since p ⊇ q ties or beats it, and only its
    pointer goes stale: ``into`` records where each absorbed row went,
    and the pick resolves ``best[p]`` through it (with path halving), as
    if the row had been repointed at every merge.  Row p itself rescans
    ``row``; an absorbed q gets ``bestw[q] = -inf`` so it is never
    picked again.  Ties break by lowest index: ``argmax`` over ``bestw``
    picks p, and ``argmax`` over p's row picks its partner.
    """
    n = len(members)
    # One gather of the members' 0/1 tag rows; forced groups OR theirs.
    flat = [m for group in members for m in group]
    rows = tags.rows(flat)
    sizes = [pool[m].size for m in flat]
    if len(flat) > n:
        starts = np.cumsum([0] + [len(group) for group in members[:-1]])
        rows = np.maximum.reduceat(rows, starts, axis=0)
        sizes = np.add.reduceat(sizes, starts).tolist()
    used = rows.any(axis=0)
    width = int(np.count_nonzero(used))
    if width >= 1 << 24:
        raise ValueError(
            f"{width} data chunks in one clustering: float32 dots are exact "
            "only below 2**24"
        )
    S = np.empty((n, width + 1), dtype=np.float32)
    S[:, :width] = rows[:, used]
    S[:, width] = 1.0
    W = S @ S.T
    np.fill_diagonal(W, -np.inf)
    best = W.argmax(axis=1)
    bestw = W[np.arange(n), best]
    del W
    into = list(range(n))  # absorbed row -> the row it merged into
    for _ in range(n - target):
        p = int(bestw.argmax())
        q = best.item(p)
        while into[q] != q:
            into[q] = into[into[q]]
            q = into[q]
        into[q] = p
        # Merge q into p (members and sizes add; support ORs).
        members[p] += members[q]
        sizes[p] += sizes[q]
        sp = S[p]
        np.maximum(sp, S[q], out=sp)
        S[q, width] = -np.inf
        bestw[q] = -np.inf
        row = S.dot(sp)  # dispatches faster than ``@`` on small operands
        row[p] = -np.inf
        np.copyto(best, p, where=row > bestw)
        np.maximum(bestw, row, out=bestw)
        b = int(row.argmax())
        best[p] = b
        bestw[p] = row.item(b)
    alive = np.flatnonzero(S[:, width] > 0).tolist()
    survivors = sorted(alive, key=lambda i: min(members[i]))
    return [
        Cluster(members[i], tags.rows(members[i]).sum(axis=0), sizes[i])
        for i in survivors
    ]


def _split_largest(
    clusters: list[Cluster],
    pool: list[IterationChunk],
    r: int,
    tags: TagMatrix,
) -> None:
    """Split the largest cluster into two (paper: "Break cαq into two")."""
    big = max(range(len(clusters)), key=lambda i: clusters[i].size)
    cluster = clusters[big]
    if len(cluster.members) > 1:
        # Move half the *iterations* out, chunk-wise (largest chunks first).
        members = sorted(cluster.members, key=lambda m: -pool[m].size)
        half = cluster.size / 2.0
        taken: list[int] = []
        acc = 0
        for m in members:
            if acc >= half and taken:
                break
            if len(taken) == len(members) - 1:
                break  # leave at least one chunk behind
            taken.append(m)
            acc += pool[m].size
        moved = set(taken)
        rest = [m for m in cluster.members if m not in moved]
        clusters[big] = _make_cluster(taken, pool, r, tags)
        clusters.append(_make_cluster(rest, pool, r, tags))
        return
    # Single chunk: split the chunk itself in half.
    m = cluster.members[0]
    chunk = pool[m]
    if chunk.size < 2:
        raise ValueError(
            "cannot create more clusters: a single-iteration chunk cannot split"
        )
    first, second = chunk.split(chunk.size // 2)
    pool[m] = first
    pool.append(second)
    tags.append(second)
    clusters[big] = _make_cluster([m], pool, r, tags)
    clusters.append(_make_cluster([len(pool) - 1], pool, r, tags))


def _make_cluster(
    members: list[int],
    pool: list[IterationChunk],
    r: int,
    tags: TagMatrix,
) -> Cluster:
    sig = np.zeros(r, dtype=np.float64)
    size = 0
    for m in members:
        sig += tags.row(m)
        size += pool[m].size
    return Cluster(list(members), sig, size)


def distribute_iterations(
    chunk_set: IterationChunkSet,
    hierarchy: CacheHierarchy,
    balance_threshold: float = 0.10,
    graph: AffinityGraph | None = None,
) -> DistributionResult:
    """The full Fig. 5 algorithm: hierarchy-aware iteration distribution.

    Parameters
    ----------
    chunk_set:
        Iteration chunks of the (parallelised) nest.
    hierarchy:
        The storage cache hierarchy tree ``T``; its leaves are the ``k``
        client nodes.
    balance_threshold:
        ``BThres`` as a fraction of the mean per-cluster iteration count
        (the paper's experiments use 10 %).
    graph:
        Optional affinity graph carrying forced (infinite-weight) pairs
        for the dependence extension; plain affinities are recomputed
        from signatures and need no graph.
    """
    check_in_range("balance_threshold", balance_threshold, 0.0, 1.0)
    pool: list[IterationChunk] = list(chunk_set.chunks)
    r = chunk_set.tag_width
    tags = TagMatrix(pool, r, chunk_set.incidence)
    forced = graph.forced_pairs if graph is not None else None
    assignment: dict[int, list[int]] = {}

    def partition(member_ids: list[int], node: CacheNode) -> None:
        if node.is_leaf:
            assignment[node.client_id] = list(member_ids)  # type: ignore[index]
            return
        k = node.degree
        if k == 1:
            partition(member_ids, node.children[0])
            return
        # The node's *children* are being partitioned: label counters by
        # the level the resulting clusters will occupy.
        child_level = node.children[0].level_name
        clusters = cluster_into(
            member_ids, pool, k, r, forced, tags, level=child_level
        )
        balance_clusters(clusters, pool, balance_threshold, r, tags)
        for child, cluster in zip(node.children, clusters):
            partition(cluster.members, child)

    partition(list(range(len(pool))), hierarchy.root)
    registry = get_registry()
    registry.gauge("clustering.pool_size").set(len(pool))
    registry.gauge("clustering.chunk_splits").set(len(pool) - len(chunk_set.chunks))
    # Clients under an empty branch (more clients than chunks after all
    # splitting) would be missing; hierarchy validation guarantees ids,
    # so fill any absentee with an empty list for safety.
    for c in range(hierarchy.num_clients):
        assignment.setdefault(c, [])
    return DistributionResult(pool, assignment, chunk_set, tags)


def flat_distribution(
    chunk_set: IterationChunkSet,
    hierarchy: CacheHierarchy,
    balance_threshold: float = 0.10,
) -> DistributionResult:
    """Hierarchy-*oblivious* k-way clustering (ablation baseline).

    Merges straight down to one cluster per client, ignoring the cache
    tree's structure — what a mapper unaware of the cache hierarchy's
    *shape* (but still affinity-driven) would do.  Comparing this to
    :func:`distribute_iterations` isolates the value of walking the tree
    level by level (DESIGN.md §6).
    """
    check_in_range("balance_threshold", balance_threshold, 0.0, 1.0)
    pool: list[IterationChunk] = list(chunk_set.chunks)
    r = chunk_set.tag_width
    tags = TagMatrix(pool, r, chunk_set.incidence)
    k = hierarchy.num_clients
    clusters = cluster_into(
        list(range(len(pool))), pool, k, r, None, tags, level="flat"
    )
    balance_clusters(clusters, pool, balance_threshold, r, tags)
    assignment = {c: list(cluster.members) for c, cluster in enumerate(clusters)}
    for c in range(k):
        assignment.setdefault(c, [])
    return DistributionResult(pool, assignment, chunk_set, tags)
