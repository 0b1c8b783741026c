"""The iteration-chunk affinity graph (paper §4.3, initialization step).

Nodes are iteration chunks; the weight between two nodes is "the number
of common '1's between the tags of the two nodes" — i.e.
``popcount(Λi AND Λj)`` = the dot product of the 0/1 tag vectors.

The whole weight matrix is ``W = S @ S.T`` for the (n, r) tag matrix S,
computed with one BLAS call on the first read of ``weights``.  The graph
is what Fig. 8 draws for the running example; the clustering stage
recomputes the same dot products from cluster signatures and reads only
the graph's forced pairs, so a mapping never builds the matrix.  This
module is the *inspectable* form (edges, neighbours) plus
the dependence-fusion hook (infinite-weight edges, §5.4).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.core.chunking import IterationChunkSet

__all__ = ["AffinityGraph", "build_affinity_graph"]


class AffinityGraph:
    """Affinity graph over the iteration chunks of one nest."""

    __slots__ = ("chunk_set", "_weights", "_forced")

    def __init__(self, chunk_set: IterationChunkSet):
        self.chunk_set = chunk_set
        self._weights: np.ndarray | None = None
        self._forced: set[tuple[int, int]] = set()

    @property
    def num_nodes(self) -> int:
        return self.chunk_set.num_chunks

    @property
    def weights(self) -> np.ndarray:
        """The dense ``(n, n)`` float64 weights, forced pairs at infinity.

        Built on first read; later :meth:`force_together` calls update it.
        """
        if self._weights is None:
            S = self.chunk_set.incidence
            w = (S @ S.T).astype(np.float64)
            for i, j in self._forced:
                w[i, j] = w[j, i] = math.inf
            self._weights = w
        return self._weights

    def edges(self, min_weight: float = 1.0) -> Iterator[tuple[int, int, float]]:
        """All undirected edges with weight >= ``min_weight`` (i < j).

        The paper's Fig. 8 omits weight-1 edges as insignificant; callers
        can do the same with ``min_weight=2``.
        """
        n = self.num_nodes
        iu, ju = np.triu_indices(n, k=1)
        w = self.weights[iu, ju]
        keep = w >= min_weight
        for i, j, wij in zip(iu[keep], ju[keep], w[keep]):
            yield int(i), int(j), float(wij)

    def neighbours(self, i: int) -> list[int]:
        """The nodes sharing at least one data chunk with node ``i``."""
        row = self.weights[i].copy()
        row[i] = -math.inf
        return np.flatnonzero(row >= 1).tolist()

    def force_together(self, i: int, j: int) -> None:
        """Give an edge infinite weight (dependence fusion, §5.4).

        Clustering then always merges these chunks into one cluster
        before considering ordinary affinities.
        """
        if i == j:
            raise ValueError("cannot force a chunk with itself")
        n = self.num_nodes
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("node index out of range")
        if self._weights is not None:
            self._weights[i, j] = self._weights[j, i] = math.inf
        self._forced.add((min(i, j), max(i, j)))

    @property
    def forced_pairs(self) -> set[tuple[int, int]]:
        return set(self._forced)

    def is_complete(self) -> bool:
        """Does every distinct pair share at least one chunk?"""
        n = self.num_nodes
        if n < 2:
            return True
        off = self.weights[~np.eye(n, dtype=bool)]
        return bool((off >= 1).all())

    def __repr__(self) -> str:
        return f"AffinityGraph(nodes={self.num_nodes}, forced={len(self._forced)})"


def build_affinity_graph(chunk_set: IterationChunkSet) -> AffinityGraph:
    """Initialization step of Fig. 5: ``ω(γΛi, γΛj) = popcount(Λi ∧ Λj)``.

    The weights are computed when first read (see :attr:`AffinityGraph.weights`).
    """
    return AffinityGraph(chunk_set)
