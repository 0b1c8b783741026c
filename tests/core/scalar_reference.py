"""The mapper's scalar forms, kept only as test oracles.

The mapper front end runs on arrays: an int64-encoded dependence
overlap test, rank-space Intra-processor candidates, lexsort chunk
grouping and one vectorized score per scheduling pick.  These are the
scalar forms they replaced — Python tuple sets, the per-permutation
re-tiling search, ``np.unique(axis=0)`` grouping and ``Tag.dot``
scoring — which the differential tests compare them against.
"""

from __future__ import annotations

import numpy as np

from repro.core.baselines import block_partition
from repro.polyhedral.dependence import EXACT_TEST_LIMIT, find_dependences
from repro.polyhedral.transforms import (
    legal_permutations,
    permute_iterations,
    tile_iterations,
)


def exact_overlap(ref_a, ref_b, space) -> bool:
    """Tuple-set form of the exact (``%``-subscript) dependence test."""
    if space.size > EXACT_TEST_LIMIT:
        return True  # conservative
    its = space.enumerate()
    ia = ref_a.indices(its)
    ib = ref_b.indices(its)
    set_a = {tuple(int(v) for v in row) for row in np.atleast_2d(ia)}
    set_b = {tuple(int(v) for v in row) for row in np.atleast_2d(ib)}
    return not set_a.isdisjoint(set_b)


def intra_order(nest, data_space, num_clients, tile_candidates):
    """The Intra-processor search re-tiling once per legal permutation."""
    iterations = nest.iterations()
    chunk_matrix = np.stack(
        [ref.touched_chunks(iterations, data_space) for ref in nest.references],
        axis=1,
    )
    distances = [d.distance for d in find_dependences(nest)]
    perms = legal_permutations(nest.depth, distances) or [tuple(range(nest.depth))]
    can_tile = all(
        dist is not None and all(c >= 0 for c in dist) for dist in distances
    )
    tiles = tile_candidates if can_tile else (0,)

    def cost(ordered):
        rows = chunk_matrix[nest.space.linearize(ordered)]
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
                candidate = tile_iterations(permuted, [tile] * nest.depth, nest.space)
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
        return min(remaining[i], key=lambda m: (tag(m).popcount(), m))

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
