"""The mapper's scalar forms, kept only as test oracles.

The mapper front end runs on arrays: a chunk matrix and an
int64-encoded dependence overlap test evaluated over the iteration box,
rank-space Intra-processor candidates, lexsort chunk grouping, one
vectorized score per scheduling pick and an array-only Stage 1 merge
loop.  These are the scalar forms they replaced — the ``(N, depth)``
iteration matrix, Python tuple sets, the per-permutation re-tiling
search, ``np.unique(axis=0)`` grouping, ``Tag.dot`` scoring and the
``Cluster``-object merge loop that kept a full pairwise matrix ``W`` —
which the differential tests compare them against.
"""

from __future__ import annotations

import numpy as np

from repro.core.baselines import block_partition
from repro.core.clustering import Cluster
from repro.polyhedral.dependence import EXACT_TEST_LIMIT, find_dependences
from repro.polyhedral.transforms import (
    legal_permutations,
    permute_iterations,
    tile_iterations,
)


def chunk_matrix(nest, data_space) -> np.ndarray:
    """Iteration-matrix form of ``chunk_matrix_for``.

    Enumerates the ``(N, depth)`` iteration matrix, evaluates every
    reference's subscripts over it with one int64 product each, checks
    each index row against the array shape and linearises the rows with
    ``np.ravel_multi_index``.
    """
    iterations = nest.iterations()
    columns = []
    for ref in nest.references:
        idx = ref.map.evaluate(iterations)
        arr = data_space.array(ref.array_name)
        if idx.shape[1] != arr.ndim:
            raise ValueError(
                f"reference to {ref.array_name} has {idx.shape[1]} subscripts, "
                f"array has {arr.ndim} dims"
            )
        shape = np.asarray(arr.shape, dtype=np.int64)
        outside = ((idx < 0) | (idx >= shape)).any(axis=1)
        if outside.any():
            bad = idx[outside][0]
            raise IndexError(f"index {bad.tolist()} out of bounds for {arr.name}{arr.shape}")
        offsets = np.ravel_multi_index(tuple(idx.T), arr.shape).astype(np.int64)
        columns.append(offsets // data_space.chunk_elems + data_space.chunk_base(ref.array_name))
    return np.stack(columns, axis=1)


def exact_overlap(ref_a, ref_b, space) -> bool:
    """Tuple-set form of the exact (``%``-subscript) dependence test."""
    if space.size > EXACT_TEST_LIMIT:
        return True  # conservative
    its = space.enumerate()
    ia = ref_a.map.evaluate(its)
    ib = ref_b.map.evaluate(its)
    set_a = {tuple(int(v) for v in row) for row in np.atleast_2d(ia)}
    set_b = {tuple(int(v) for v in row) for row in np.atleast_2d(ib)}
    return not set_a.isdisjoint(set_b)


def intra_order(nest, data_space, num_clients, tile_candidates):
    """The Intra-processor search re-tiling once per legal permutation."""
    iterations = nest.iterations()
    matrix = chunk_matrix(nest, data_space)
    distances = [d.distance for d in find_dependences(nest)]
    perms = legal_permutations(nest.depth, distances) or [tuple(range(nest.depth))]
    can_tile = all(
        dist is not None and all(c >= 0 for c in dist) for dist in distances
    )
    tiles = tile_candidates if can_tile else (0,)

    def cost(ordered):
        rows = matrix[nest.space.linearize(ordered)]
        if len(rows) < 2:
            return int(rows.shape[1])
        return int(rows.shape[1] + np.count_nonzero(rows[1:] != rows[:-1]))

    best_cost, best_order = None, iterations
    for perm in perms:
        permuted = permute_iterations(iterations, perm)
        for tile in tiles:
            if tile == 0:
                candidate = permuted
            else:
                if tile >= max(nest.space.shape):
                    continue
                candidate = tile_iterations(permuted, [tile] * nest.depth)
            c = cost(candidate)
            if best_cost is None or c < best_cost:
                best_cost, best_order = c, candidate
    ranks = nest.space.linearize(best_order)
    return block_partition(ranks, num_clients)


def group_rows(canon):
    """``np.unique(axis=0)`` form of the iteration-chunk grouping.

    Returns the distinct rows and each one's ascending row indices, in
    order of first appearance.
    """
    uniq, inverse = np.unique(canon, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    order = np.argsort(inverse, kind="stable")
    counts = np.bincount(inverse, minlength=len(uniq))
    groups = np.split(order, np.cumsum(counts)[:-1])
    first_rank = np.asarray([g[0] for g in groups])
    appearance = np.argsort(first_rank, kind="stable")
    return uniq[appearance], [np.sort(groups[g]) for g in appearance]


def schedule_group(client_chunks, pool, alpha, beta):
    """Fig. 15 inner loop scored chunk by chunk with ``Tag.dot``."""
    n = len(client_chunks)
    remaining = [list(c) for c in client_chunks]
    schedules = [[] for _ in range(n)]
    counts = [0] * n

    def tag(m):
        return pool[m].tag

    def take(i, m):
        remaining[i].remove(m)
        schedules[i].append(m)
        counts[i] += pool[m].size

    def best(i, score):
        return min(remaining[i], key=lambda m: (-score(m), m))

    def fewest(i):
        return min(remaining[i], key=lambda m: (len(tag(m).chunks), m))

    while any(remaining):
        progressed = False
        for i in range(n):
            if not remaining[i]:
                continue
            if i == 0 and not schedules[i]:
                take(i, fewest(i))
                progressed = True
            elif i > 0 and not schedules[i]:
                prev = schedules[i - 1]
                if prev:
                    x = tag(prev[-1])
                    take(i, best(i, lambda m: alpha * tag(m).dot(x)))
                else:
                    take(i, fewest(i))
                progressed = True
            elif i == 0:
                while remaining[i] and counts[i] < counts[n - 1]:
                    y = tag(schedules[i][-1])
                    take(i, best(i, lambda m: beta * tag(m).dot(y)))
                    progressed = True
            else:
                while remaining[i] and counts[i] < counts[i - 1]:
                    y = tag(schedules[i][-1])
                    prev = schedules[i - 1]
                    x = tag(prev[-1]) if prev else y
                    take(
                        i,
                        best(i, lambda m: alpha * tag(m).dot(x) + beta * tag(m).dot(y)),
                    )
                    progressed = True
        if not progressed:
            i = min((j for j in range(n) if remaining[j]), key=lambda j: counts[j])
            if schedules[i]:
                y = tag(schedules[i][-1])
                take(i, best(i, lambda m: beta * tag(m).dot(y)))
            else:
                take(i, fewest(i))
    return schedules


def merge_down(clusters: list[Cluster], target: int, r: int) -> list[Cluster]:
    """Greedy pairwise merging by maximal signature dot product.

    A cluster's merge signature is the *support* (bitwise OR) of its
    member tags: the dot product then counts the distinct data chunks
    two clusters share.  (A count-weighted signature would snowball
    through any data chunk every iteration touches — e.g. the ``A[i%d]``
    window of Fig. 6 — and merge unrelated clusters, contradicting the
    paper's own Fig. 9 outcome.)

    The pairwise matrix ``W`` is maintained with a per-row best-partner
    cache.  OR-dots are monotone under support growth, so after merging
    q into p every cached best only improves at column p and rows that
    pointed at q can safely repoint to p (``p ⊇ q``); only row p itself
    recomputes, with one matvec.
    """
    n = len(clusters)
    # Support (0/1) matrix for merge decisions.
    S = np.stack([(c.signature > 0).astype(np.float64) for c in clusters])
    W = S @ S.T
    np.fill_diagonal(W, -np.inf)
    best = np.argmax(W, axis=1)
    bestw = W[np.arange(n), best]
    alive = np.ones(n, dtype=bool)
    remaining = n
    while remaining > target:
        masked = np.where(alive, bestw, -np.inf)
        p = int(np.argmax(masked))
        q = int(best[p])
        # Merge q into p (counts add; support ORs).
        clusters[p].members.extend(clusters[q].members)
        clusters[p].signature += clusters[q].signature
        clusters[p].size += clusters[q].size
        np.maximum(S[p], S[q], out=S[p])
        alive[q] = False
        bestw[q] = -np.inf
        W[q, :] = -np.inf
        W[:, q] = -np.inf
        # Exact new row for p: one matvec against the alive supports.
        row = S @ S[p]
        row[~alive] = -np.inf
        row[p] = -np.inf
        W[p, :] = row
        W[:, p] = row
        # Rows pointing at p or q: p absorbed q, so p is at least as good
        # as the stale cached partner (support monotonicity).
        repoint = alive & ((best == q) | (best == p))
        if repoint.any():
            best[repoint] = p
            bestw[repoint] = W[repoint, p]
        # Every other row may only have improved at column p.
        better = alive & (W[:, p] > bestw)
        if better.any():
            best[better] = p
            bestw[better] = W[better, p]
        # Row p itself rescans its fresh row.
        best[p] = int(np.argmax(W[p]))
        bestw[p] = W[p, best[p]]
        remaining -= 1
    ordered = [clusters[i] for i in range(n) if alive[i]]
    # Deterministic child order: by smallest member pool index.
    ordered.sort(key=lambda c: min(c.members))
    return ordered
