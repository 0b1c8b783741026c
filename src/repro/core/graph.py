"""The iteration-chunk affinity graph (paper §4.3, initialization step).

Nodes are iteration chunks; the weight between two nodes is "the number
of common '1's between the tags of the two nodes" — i.e.
``popcount(Λi AND Λj)`` = the dot product of the 0/1 tag vectors.

The whole weight matrix is ``W = S @ S.T`` for the (n, r) tag matrix S,
computed with one BLAS call.  The graph is what Fig. 8 draws for the
running example; the clustering stage consumes the same dot products via
cluster signatures, so this module is primarily the *inspectable* form
(edges, neighbours, components) plus the dependence-fusion hook
(infinite-weight edges, §5.4).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.core.chunking import IterationChunkSet

__all__ = ["AffinityGraph", "build_affinity_graph"]


class AffinityGraph:
    """Dense affinity graph over the iteration chunks of one nest."""

    __slots__ = ("chunk_set", "weights", "_forced")

    def __init__(self, chunk_set: IterationChunkSet, weights: np.ndarray):
        n = chunk_set.num_chunks
        w = np.asarray(weights)
        if w.shape != (n, n):
            raise ValueError(f"weight matrix must be ({n}, {n}), got {w.shape}")
        if not np.array_equal(w, w.T):
            raise ValueError("affinity weights must be symmetric")
        self.chunk_set = chunk_set
        self.weights = w.astype(np.float64)
        self._forced: set[tuple[int, int]] = set()

    @property
    def num_nodes(self) -> int:
        return self.chunk_set.num_chunks

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

    def neighbours(self, i: int, min_weight: float = 1.0) -> list[int]:
        row = self.weights[i].copy()
        row[i] = -math.inf
        return np.flatnonzero(row >= min_weight).tolist()

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
        self.weights[i, j] = self.weights[j, i] = math.inf
        self._forced.add((min(i, j), max(i, j)))

    @property
    def forced_pairs(self) -> set[tuple[int, int]]:
        return set(self._forced)

    def is_complete(self, min_weight: float = 1.0) -> bool:
        """Does every distinct pair share at least ``min_weight`` chunks?"""
        n = self.num_nodes
        if n < 2:
            return True
        off = self.weights[~np.eye(n, dtype=bool)]
        return bool((off >= min_weight).all())

    def components(self, min_weight: float = 1.0) -> list[list[int]]:
        """Connected components under the >=min_weight edge relation."""
        n = self.num_nodes
        seen = np.zeros(n, dtype=bool)
        comps: list[list[int]] = []
        for start in range(n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in self.neighbours(u, min_weight):
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            comps.append(sorted(comp))
        return comps

    def __repr__(self) -> str:
        return f"AffinityGraph(nodes={self.num_nodes}, forced={len(self._forced)})"


def build_affinity_graph(chunk_set: IterationChunkSet) -> AffinityGraph:
    """Initialization step of Fig. 5: ``ω(γΛi, γΛj) = popcount(Λi ∧ Λj)``."""
    S = chunk_set.incidence
    W = S @ S.T
    return AffinityGraph(chunk_set, W)
