"""Iteration tagging and iteration-chunk formation (paper §4.2).

Every iteration gets an *r*-bit tag (bit k set iff the iteration touches
data chunk ``π_k``); iterations with identical tags form an *iteration
chunk* ``γ_Λ``.  Formation is fully vectorised: all references evaluate
over the whole iteration matrix at once, per-iteration chunk-id rows are
canonicalised (sorted, in-row duplicates masked), and a row lexsort with
a boundary diff yields the grouping.  The distinct rows are scattered
once into a ``(chunks, r)`` 0/1 incidence matrix, which the affinity
graph and the clustering stage read instead of the per-chunk tags.

Iterations are stored as **lexicographic ranks** into the nest's
iteration space, so a chunk is just an int64 vector; the explicit
``(m, depth)`` vectors are recovered on demand (e.g. for codegen).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.polyhedral.arrays import DataSpace
from repro.polyhedral.nest import LoopNest
from repro.util.bitset import Tag

__all__ = [
    "IterationChunk",
    "IterationChunkSet",
    "chunk_matrix_for",
    "form_iteration_chunks",
]

#: In-row placeholder for a duplicated chunk id (sorts first; never a real id).
_PAD = -1


@dataclass
class IterationChunk:
    """A maximal set of iterations sharing one data-chunk access tag.

    ``iterations`` holds lexicographic ranks (ascending) into the source
    nest's iteration space.  Splitting during load balancing produces
    chunks with equal tags and disjoint iteration sets.
    """

    tag: Tag
    iterations: np.ndarray

    def __post_init__(self):
        self.iterations = np.asarray(self.iterations, dtype=np.int64)
        if self.iterations.ndim != 1 or len(self.iterations) == 0:
            raise ValueError("an iteration chunk needs a non-empty 1-D rank vector")

    @property
    def size(self) -> int:
        """S(γ_Λ): the number of iterations in the chunk."""
        return int(len(self.iterations))

    def split(self, first_part: int) -> tuple["IterationChunk", "IterationChunk"]:
        """Split into (first ``first_part`` iterations, the rest)."""
        if not 0 < first_part < self.size:
            raise ValueError(
                f"split point {first_part} must be inside (0, {self.size})"
            )
        return (
            IterationChunk(self.tag, self.iterations[:first_part]),
            IterationChunk(self.tag, self.iterations[first_part:]),
        )

    def __repr__(self) -> str:
        return f"IterationChunk(size={self.size}, chunks={sorted(self.tag.chunks)})"


class IterationChunkSet:
    """All iteration chunks of one nest plus shared context."""

    __slots__ = ("nest", "data_space", "chunks", "ref_chunk_matrix", "incidence")

    def __init__(
        self,
        nest: LoopNest,
        data_space: DataSpace,
        chunks: Sequence[IterationChunk],
        ref_chunk_matrix: np.ndarray | None = None,
        incidence: np.ndarray | None = None,
    ):
        self.nest = nest
        self.data_space = data_space
        self.chunks = list(chunks)
        #: Optional (N, R) matrix of the data chunk touched by each
        #: iteration through each reference — kept for stream generation.
        self.ref_chunk_matrix = ref_chunk_matrix
        #: (num_chunks, r) 0/1 float64 tag incidence matrix: row i has a
        #: 1 at every data chunk chunk i's tag touches.  Chunk formation
        #: scatters it in one pass; otherwise it is built from the tags.
        if incidence is None:
            incidence = np.zeros((len(self.chunks), self.tag_width))
            for i, chunk in enumerate(self.chunks):
                incidence[i, list(chunk.tag.chunks)] = 1.0
        elif incidence.shape != (len(self.chunks), self.tag_width):
            raise ValueError(
                f"incidence must be ({len(self.chunks)}, {self.tag_width}), "
                f"got {incidence.shape}"
            )
        self.incidence = incidence

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    @property
    def tag_width(self) -> int:
        return self.data_space.num_chunks

    @property
    def total_iterations(self) -> int:
        return sum(c.size for c in self.chunks)

    def __iter__(self) -> Iterator[IterationChunk]:
        return iter(self.chunks)

    def __getitem__(self, idx: int) -> IterationChunk:
        return self.chunks[idx]

    def __len__(self) -> int:
        return len(self.chunks)

    def iterations_of(self, chunk_index: int) -> np.ndarray:
        """Explicit ``(m, depth)`` iteration vectors of one chunk."""
        ranks = self.chunks[chunk_index].iterations
        return self.nest.space.delinearize(ranks)

    def signature_matrix(self) -> np.ndarray:
        """Dense (num_chunks, r) 0/1 int64 matrix of chunk tags.

        Row i is the tag vector of chunk i: :attr:`incidence` as integers.
        """
        return self.incidence.astype(np.int64)

    def validate_partition(self) -> None:
        """Assert the chunks exactly partition the nest's iterations."""
        total = self.nest.num_iterations
        seen = np.concatenate([c.iterations for c in self.chunks]) if self.chunks else np.empty(0, np.int64)
        if len(seen) != total or len(np.unique(seen)) != total:
            raise ValueError(
                f"iteration chunks do not partition the nest: {len(seen)} ranks "
                f"({len(np.unique(seen))} unique) vs {total} iterations"
            )

    def __repr__(self) -> str:
        return (
            f"IterationChunkSet(nest={self.nest.name!r}, chunks={self.num_chunks}, "
            f"iterations={self.total_iterations}, r={self.tag_width})"
        )


def _group_rows(canon: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Distinct rows and each one's ascending row indices, by first appearance.

    A stable lexsort (column 0 primary) keeps every group's indices
    ascending; a row differing from its sorted predecessor opens a group.
    """
    order = np.lexsort(canon.T[::-1])
    ordered = canon[order]
    opens = np.ones(len(canon), dtype=bool)
    opens[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    starts = np.flatnonzero(opens)
    groups = np.split(order, starts[1:])
    appearance = np.argsort(order[starts])
    return ordered[starts[appearance]], [groups[g] for g in appearance]


def chunk_matrix_for(nest: LoopNest, data_space: DataSpace) -> np.ndarray:
    """The (N, R) per-iteration, per-reference data chunk id matrix."""
    iterations = nest.iterations()
    return np.stack(
        [ref.touched_chunks(iterations, data_space) for ref in nest.references],
        axis=1,
    )


def form_iteration_chunks(
    nest: LoopNest,
    data_space: DataSpace,
    chunk_matrix: np.ndarray | None = None,
) -> IterationChunkSet:
    """Group the nest's iterations into iteration chunks by tag (§4.2).

    Vectorised end to end; returns chunks ordered by first appearance in
    lexicographic iteration order (matching the paper's Fig. 8 numbering
    for the running example).  ``chunk_matrix`` is the nest's
    :func:`chunk_matrix_for` matrix when the caller already built it.
    """
    if chunk_matrix is None:
        chunk_matrix = chunk_matrix_for(nest, data_space)
    elif chunk_matrix.shape != (nest.num_iterations, len(nest.references)):
        raise ValueError(
            f"chunk_matrix must be ({nest.num_iterations}, "
            f"{len(nest.references)}), got {chunk_matrix.shape}"
        )
    n_iters = len(chunk_matrix)

    # Canonicalise rows: sort ascending, then mask duplicates with the pad
    # value and re-sort so e.g. [2,1,2] and [1,2,2] both become [-1,1,2]
    # — identical *sets* must compare equal.
    rows = np.sort(chunk_matrix, axis=1)
    dup = np.zeros_like(rows, dtype=bool)
    dup[:, 1:] = rows[:, 1:] == rows[:, :-1]
    canon = np.where(dup, _PAD, rows)
    canon = np.sort(canon, axis=1)

    distinct, groups = _group_rows(canon)
    r = data_space.num_chunks
    chunks = [
        IterationChunk(Tag([c for c in row if c != _PAD], r), ranks)
        for row, ranks in zip(distinct.tolist(), groups)
    ]
    # Scatter the canonical rows into the (chunks, r) 0/1 incidence matrix.
    incidence = np.zeros((len(distinct), r))
    owner = np.repeat(np.arange(len(distinct)), distinct.shape[1])
    cols = distinct.ravel()
    real = cols != _PAD
    incidence[owner[real], cols[real]] = 1.0

    chunk_set = IterationChunkSet(nest, data_space, chunks, chunk_matrix, incidence)
    assert chunk_set.total_iterations == n_iters
    return chunk_set
