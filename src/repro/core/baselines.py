"""The paper's two comparison versions (§5.1).

* **Original** — "the set of iterations to be executed in parallel is
  first ordered lexicographically … and then divided into K clusters,
  where K is the number of client nodes.  Each cluster is then assigned
  to a client node."
* **Intra-processor** — the same blocked assignment, but the iteration
  *order* is first improved with single-processor data-locality
  transformations: loop permutation and iteration-space tiling, with the
  tile size chosen empirically ("we experimented with different tile
  sizes and selected the one that performs the best").  It optimises
  each client in isolation and ignores shared caches — exactly the
  paper's storage-cache-hierarchy-agnostic strawman.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Sequence

import numpy as np

from repro.core.chunking import chunk_matrix_for
from repro.core.mapping import Mapping
from repro.telemetry import get_registry, phase
from repro.hierarchy.topology import CacheHierarchy
from repro.polyhedral.arrays import DataSpace
from repro.polyhedral.dependence import find_dependences
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.transforms import legal_permutations

__all__ = [
    "OriginalMapper",
    "IntraProcessorMapper",
    "block_partition",
    "permuted_ranks",
    "tiled_ranks",
]

#: Tile-size candidates searched by the Intra-processor mapper (0 = untiled).
DEFAULT_TILE_CANDIDATES = (0, 4, 8, 16, 32, 64)


def block_partition(ordered_ranks: np.ndarray, num_clients: int) -> dict[int, np.ndarray]:
    """Divide an execution order into K near-equal contiguous blocks."""
    if num_clients <= 0:
        raise ValueError("need at least one client")
    blocks = np.array_split(np.asarray(ordered_ranks, dtype=np.int64), num_clients)
    return {c: blocks[c] for c in range(num_clients)}


class OriginalMapper:
    """Lexicographic order, blocked over the clients."""

    name = "original"

    def map(
        self,
        nest: LoopNest,
        data_space: DataSpace,
        hierarchy: CacheHierarchy,
        rng: np.random.Generator | None = None,
        chunk_matrix: np.ndarray | None = None,
    ) -> Mapping:
        with phase("mapping") as total:
            ranks = np.arange(nest.num_iterations, dtype=np.int64)
            order = block_partition(ranks, hierarchy.num_clients)
            mapping = Mapping(self.name, order)
        mapping.mapping_time_s = total.elapsed
        return mapping


class IntraProcessorMapper:
    """Locality-transformed order (permutation + tiling), blocked over clients.

    The execution-order candidates are scored by the number of *chunk
    transitions* in the resulting access stream — a direct proxy for
    private-cache misses under LRU (every transition risks a miss; runs
    of equal chunks are guaranteed hits).  This reproduces "selected the
    one that performs the best" without simulating each candidate.
    """

    name = "intra"

    def __init__(self, tile_candidates: Sequence[int] = DEFAULT_TILE_CANDIDATES):
        if any(int(t) < 0 for t in tile_candidates):
            raise ValueError("tile candidates must be >= 0 (0 = untiled)")
        self.tile_candidates = tuple(dict.fromkeys(int(t) for t in tile_candidates))

    def map(
        self,
        nest: LoopNest,
        data_space: DataSpace,
        hierarchy: CacheHierarchy,
        rng: np.random.Generator | None = None,
        chunk_matrix: np.ndarray | None = None,
    ) -> Mapping:
        """Block the best-scoring transformed order over the clients.

        ``chunk_matrix`` is the nest's
        :func:`~repro.core.chunking.chunk_matrix_for` matrix, when the
        caller already built it.
        """
        with phase("mapping") as total:
            if chunk_matrix is None:
                chunk_matrix = chunk_matrix_for(nest, data_space)
            mapping = self._map(nest, chunk_matrix, hierarchy)
        mapping.mapping_time_s = total.elapsed
        return mapping

    def _map(
        self,
        nest: LoopNest,
        chunk_matrix: np.ndarray,
        hierarchy: CacheHierarchy,
    ) -> Mapping:
        deps = find_dependences(nest)
        distances = [d.distance for d in deps]
        perms = legal_permutations(nest.depth, distances) or [tuple(range(nest.depth))]
        # Tiling is legal only on a fully permutable band: every dependence
        # distance known and component-wise non-negative.
        can_tile = all(
            dist is not None and all(c >= 0 for c in dist) for dist in distances
        )
        tile_candidates = self.tile_candidates if can_tile else (0,)
        shape = nest.space.shape

        # Candidates in the order the search has always visited them: every
        # legal permutation, untiled; the tiled orders only with the first
        # permutation.  Tiling ignores the permutation (it sorts on tile
        # coordinates, then full coordinates), so each later permutation
        # would rescore the same tiled orders, and a repeat never wins
        # under the strict ``<``.
        candidates = []
        for k, perm in enumerate(perms):
            for tile in tile_candidates:
                if tile == 0:
                    candidates.append(partial(permuted_ranks, shape, perm))
                elif k == 0 and tile < max(shape):
                    # (a tile >= every extent is the untiled order)
                    candidates.append(partial(tiled_ranks, shape, tile))

        best_cost = None
        best_ranks = None
        for build in candidates:
            ranks = build()
            cost = self._transition_cost(ranks, chunk_matrix)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_ranks = ranks
        if best_ranks is None:
            best_ranks = np.arange(nest.num_iterations, dtype=np.int64)
        get_registry().counter("baselines.intra.candidates").inc(len(candidates))
        order = block_partition(best_ranks, hierarchy.num_clients)
        return Mapping(self.name, order)

    @staticmethod
    def _transition_cost(ranks: np.ndarray, chunk_matrix: np.ndarray) -> int:
        """Block requests the execution order ``ranks`` issues.

        Counts per-reference block transitions — exactly the number of
        storage-cache requests after request coalescing, i.e. the
        compulsory load the order puts on the private cache.
        """
        rows = chunk_matrix[ranks]
        if len(rows) < 2:
            return int(rows.shape[1])
        return int(
            rows.shape[1] + np.count_nonzero(rows[1:] != rows[:-1])
        )


def permuted_ranks(shape: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Lexicographic ranks in the execution order of a loop permutation.

    Rank-space form of ``space.linearize(permute_iterations(its, perm))``:
    ``perm[k]`` is the original loop that runs k-th (outermost first).
    """
    grid = np.arange(math.prod(shape), dtype=np.int64).reshape(shape)
    return grid.transpose(perm).ravel()


def tiled_ranks(shape: Sequence[int], tile: int) -> np.ndarray:
    """Lexicographic ranks in the blocked order of ``tile``-sized tiles.

    Rank-space form of ``space.linearize(tile_iterations(its, [tile] *
    depth, space))``: the grid is padded with -1 to whole tiles, split
    into ``(nt0, t0, nt1, t1, …)``, walked tile coordinates first, and
    the padding dropped.  A loop whose extent the tile covers keeps one
    tile of its full extent.
    """
    depth = len(shape)
    sizes = [min(int(tile), n) for n in shape]
    counts = [-(-n // t) for n, t in zip(shape, sizes)]
    padded = np.full([c * t for c, t in zip(counts, sizes)], -1, dtype=np.int64)
    padded[tuple(slice(0, n) for n in shape)] = np.arange(
        math.prod(shape), dtype=np.int64
    ).reshape(shape)
    split = padded.reshape([d for pair in zip(counts, sizes) for d in pair])
    walk = split.transpose(list(range(0, 2 * depth, 2)) + list(range(1, 2 * depth, 2)))
    flat = walk.ravel()
    return flat[flat >= 0]
