"""Loop transformations: permutation and tiling.

These power the *Intra-processor* baseline of §5.1: "well-known data
locality enhancing transformations … loop permutation (changing the order
in which loop iterations are executed) and iteration space tiling".  Both
transforms reorder the *execution order* of the same iteration set — the
mapping itself stays a blocked partition, exactly as the paper describes.

The functions operate on explicit iteration matrices and return
re-ordered views/copies, vectorised end to end.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "permute_iterations",
    "tile_iterations",
    "legal_permutations",
    "permutation_is_legal",
]


def permute_iterations(
    iterations: np.ndarray, order: Sequence[int]
) -> np.ndarray:
    """Reorder iterations as if the loops were permuted to ``order``.

    ``order[k]`` names the original loop that becomes the k-th loop of the
    permuted nest (outermost first).  The result contains the same
    iteration vectors (original column layout) sorted in the permuted
    nest's lexicographic execution order.
    """
    its = np.asarray(iterations, dtype=np.int64)
    if its.ndim != 2:
        raise ValueError("iterations must be (N, depth)")
    depth = its.shape[1]
    order = list(order)
    if sorted(order) != list(range(depth)):
        raise ValueError(f"order {order!r} is not a permutation of 0..{depth - 1}")
    # np.lexsort sorts by the *last* key as primary; feed keys so that
    # order[0] is primary.
    keys = tuple(its[:, order[k]] for k in range(depth - 1, -1, -1))
    return its[np.lexsort(keys)]


def tile_iterations(
    iterations: np.ndarray,
    tile_sizes: Sequence[int],
) -> np.ndarray:
    """Reorder iterations into blocked (tiled) execution order.

    The iteration space is cut into rectangular tiles of ``tile_sizes``;
    tiles execute in lexicographic order of their tile coordinates and
    iterations execute lexicographically within each tile — the classic
    blocked schedule the Intra-processor baseline uses to improve
    temporal reuse.

    Tiles start at the smallest coordinate of each loop.
    ``tile_sizes[k] <= 0`` or ``>= extent`` leaves loop k untiled.
    """
    its = np.asarray(iterations, dtype=np.int64)
    if its.ndim != 2:
        raise ValueError("iterations must be (N, depth)")
    depth = its.shape[1]
    sizes = list(tile_sizes)
    if len(sizes) != depth:
        raise ValueError("one tile size per loop expected")
    lowers = its.min(axis=0) if len(its) else np.zeros(depth, np.int64)
    # Sort keys: (tile coord of loop 0, …, tile coord of loop d-1,
    #             intra coord of loop 0, …, intra coord of loop d-1).
    tile_coords = np.empty_like(its)
    for k in range(depth):
        t = int(sizes[k])
        if t <= 0:
            tile_coords[:, k] = 0
        else:
            tile_coords[:, k] = (its[:, k] - lowers[k]) // t
    keys: list[np.ndarray] = []
    for k in range(depth - 1, -1, -1):
        keys.append(its[:, k])
    for k in range(depth - 1, -1, -1):
        keys.append(tile_coords[:, k])
    return its[np.lexsort(tuple(keys))]


def permutation_is_legal(
    order: Sequence[int], distance_vectors: Sequence[Sequence[int]]
) -> bool:
    """Is a loop permutation legal w.r.t. the given dependence distances?

    Legal iff every permuted distance vector stays lexicographically
    non-negative (classic legality condition).  Unknown (``None``)
    distances make any non-identity permutation illegal.
    """
    order = list(order)
    for dist in distance_vectors:
        if dist is None:
            return list(order) == sorted(order)
        permuted = [dist[loop] for loop in order]
        for d in permuted:
            if d > 0:
                break
            if d < 0:
                return False
    return True


def legal_permutations(
    depth: int, distance_vectors: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """All legal loop permutations of a ``depth``-deep nest."""
    from itertools import permutations

    return [
        perm
        for perm in permutations(range(depth))
        if permutation_is_legal(perm, distance_vectors)
    ]
