"""Handling multiple loop nests at the same time (paper §5.4).

"If we want to handle, say, two nests together, we simply form the G set
to contain iterations of both the nests and the rest of our approach
does not need any modification."  Iterations of each nest keep their
lexicographic ranks, offset so the combined rank space is disjoint;
tags live in the shared data space, so chunking, the affinity graph,
clustering and scheduling all run unchanged on the combined chunk set.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.chunking import IterationChunk, IterationChunkSet, form_iteration_chunks
from repro.polyhedral.arrays import DataSpace
from repro.polyhedral.nest import LoopNest

__all__ = ["CombinedNest", "combine_nests"]


class CombinedNest:
    """A set of loop nests presented as one rank space.

    Global iteration ranks are per-nest lexicographic ranks shifted by
    the nest's offset; :meth:`locate` inverts the shift (used by the
    simulator's stream builder).
    """

    __slots__ = ("nests", "offsets", "name")

    def __init__(self, nests: Sequence[LoopNest]):
        if not nests:
            raise ValueError("need at least one nest")
        self.nests = tuple(nests)
        offsets = [0]
        for nest in self.nests:
            offsets.append(offsets[-1] + nest.num_iterations)
        self.offsets = tuple(offsets)
        self.name = "+".join(n.name for n in self.nests)

    @property
    def num_iterations(self) -> int:
        return self.offsets[-1]

    def locate(self, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Global ranks -> (nest index, local rank), vectorised."""
        r = np.asarray(ranks, dtype=np.int64)
        if len(r) and (r.min() < 0 or r.max() >= self.num_iterations):
            raise ValueError("rank outside combined space")
        bounds = np.asarray(self.offsets[1:], dtype=np.int64)
        nest_ids = np.searchsorted(bounds, r, side="right")
        local = r - np.asarray(self.offsets, dtype=np.int64)[nest_ids]
        return nest_ids, local

    def __repr__(self) -> str:
        return f"CombinedNest({[n.name for n in self.nests]}, N={self.num_iterations})"


def combine_nests(
    nests: Sequence[LoopNest], data_space: DataSpace
) -> tuple[CombinedNest, IterationChunkSet]:
    """Form the combined iteration-chunk set over several nests.

    Chunks of different nests are never merged at formation time even
    when their tags coincide (they cannot interleave executions), but
    the clustering stage is free to co-locate them — which is exactly
    how inter-nest reuse gets exploited.
    """
    combined = CombinedNest(nests)
    chunks: list[IterationChunk] = []
    incidence: list[np.ndarray] = []
    for nest, offset in zip(combined.nests, combined.offsets):
        sub = form_iteration_chunks(nest, data_space)
        for ch in sub.chunks:
            chunks.append(ch.with_iterations(ch.iterations + offset))
        incidence.append(sub.incidence)
    chunk_set = IterationChunkSet(
        combined,  # type: ignore[arg-type]
        data_space,
        chunks,
        incidence=np.vstack(incidence),
    )
    return combined, chunk_set
