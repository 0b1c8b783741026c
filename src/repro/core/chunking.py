"""Iteration tagging and iteration-chunk formation (paper §4.2).

Every iteration gets an *r*-bit tag (bit k set iff the iteration touches
data chunk ``π_k``); iterations with identical tags form an *iteration
chunk* ``γ_Λ``.  Formation is fully vectorised: each reference evaluates
over the nest's rectangular iteration box by broadcasting one vector per
loop (:func:`chunk_matrix_for`, :mod:`repro.polyhedral.box`; no
``(N, depth)`` iteration matrix is built), and each per-iteration
chunk-id row becomes one exact int64 key (:func:`_row_keys`).  The raw
rows group by key; only the few hundred distinct raw rows are
canonicalised (sorted, in-row duplicates masked) and grouped again by
key, and composing the two groupings yields the chunks.  The distinct
rows are scattered once into a ``(chunks, r)`` 0/1 incidence matrix,
which the affinity graph and the clustering stage read instead of the
per-chunk tags.

Iterations are stored as **lexicographic ranks** into the nest's
iteration space, so a chunk is just an int64 vector; the explicit
``(m, depth)`` vectors are recovered on demand (e.g. for codegen).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.polyhedral.arrays import DataSpace
from repro.polyhedral.box import affine_range, loop_axes, subscript_values
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


class IterationChunk:
    """A maximal set of iterations sharing one data-chunk access tag.

    ``iterations`` holds lexicographic ranks (ascending) into the source
    nest's iteration space.  ``chunk_ids`` are the tag's set bits in
    ascending order and ``nbits`` its width; the :class:`Tag` itself is
    built on first use of :attr:`tag`, since the mapper reads tags as
    incidence rows.  Splitting during load balancing produces chunks
    with equal tags and disjoint iteration sets.
    """

    __slots__ = ("chunk_ids", "nbits", "iterations", "_tag")

    def __init__(self, tag: Tag, iterations: np.ndarray):
        self._set(tuple(sorted(tag.chunks)), tag.nbits, iterations, tag)

    @classmethod
    def from_ids(
        cls, chunk_ids: tuple[int, ...], nbits: int, iterations: np.ndarray
    ) -> "IterationChunk":
        """A chunk over ascending in-range ``chunk_ids``, its tag built lazily."""
        chunk = cls.__new__(cls)
        chunk._set(chunk_ids, nbits, iterations, None)
        return chunk

    def _set(self, chunk_ids, nbits, iterations, tag) -> None:
        iterations = np.asarray(iterations, dtype=np.int64)
        if iterations.ndim != 1 or len(iterations) == 0:
            raise ValueError("an iteration chunk needs a non-empty 1-D rank vector")
        self.chunk_ids = chunk_ids
        self.nbits = nbits
        self.iterations = iterations
        self._tag = tag

    @property
    def tag(self) -> Tag:
        """``Λ``: the chunk's access tag (built on first use)."""
        if self._tag is None:
            self._tag = Tag(self.chunk_ids, self.nbits)
        return self._tag

    @property
    def size(self) -> int:
        """S(γ_Λ): the number of iterations in the chunk."""
        return len(self.iterations)

    def with_iterations(self, iterations: np.ndarray) -> "IterationChunk":
        """The same tag (ids and any built :class:`Tag` shared) over other ranks."""
        chunk = IterationChunk.from_ids(self.chunk_ids, self.nbits, iterations)
        chunk._tag = self._tag
        return chunk

    def split(self, first_part: int) -> tuple["IterationChunk", "IterationChunk"]:
        """Split into (first ``first_part`` iterations, the rest)."""
        if not 0 < first_part < self.size:
            raise ValueError(
                f"split point {first_part} must be inside (0, {self.size})"
            )
        return (
            self.with_iterations(self.iterations[:first_part]),
            self.with_iterations(self.iterations[first_part:]),
        )

    def __repr__(self) -> str:
        return f"IterationChunk(size={self.size}, chunks={list(self.chunk_ids)})"


class IterationChunkSet:
    """All iteration chunks of one nest plus shared context."""

    __slots__ = ("nest", "data_space", "chunks", "incidence")

    def __init__(
        self,
        nest: LoopNest,
        data_space: DataSpace,
        chunks: Sequence[IterationChunk],
        incidence: np.ndarray | None = None,
    ):
        self.nest = nest
        self.data_space = data_space
        self.chunks = list(chunks)
        #: (num_chunks, r) 0/1 float64 tag incidence matrix: row i has a
        #: 1 at every data chunk chunk i's tag touches.  Chunk formation
        #: scatters it in one pass; otherwise it is built from the tags.
        if incidence is None:
            incidence = np.zeros((len(self.chunks), self.tag_width))
            for i, chunk in enumerate(self.chunks):
                incidence[i, list(chunk.chunk_ids)] = 1.0
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


#: Spans (and so keys and radixes) stay at or below int64's maximum, so
#: every key and every radix it is multiplied by is an exact int64.
_KEY_LIMIT = 2**63 - 1


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One exact int64 key per row: two rows are equal iff their keys are.

    Mixed radix over the columns, column 0 most significant: each column
    is offset by its minimum and weighted by the product of the later
    columns' ranges ``max - min + 1``.  Before a step whose keys could
    reach 2⁶³, the keys so far are re-ranked densely (at most ``n``
    values), and the column too if that is not enough, so the key is
    exact for any int64 input.  Keys order the rows lexicographically.
    """
    keys = np.zeros(len(rows), dtype=np.int64)
    if len(rows) == 0:
        return keys
    span = 1  # every key so far lies in [0, span)
    for col in rows.T:
        lo = int(col.min())
        radix = int(col.max()) - lo + 1
        if span * radix > _KEY_LIMIT:
            distinct, keys = np.unique(keys, return_inverse=True)
            span = len(distinct)
        if span * radix > _KEY_LIMIT:
            distinct, col = np.unique(col, return_inverse=True)
            lo, radix = 0, len(distinct)
        keys = keys * radix + (col - lo)
        span *= radix
    return keys


def _sort_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable sorting order of ``keys`` and where in it each run opens.

    ``opens[i]`` is true iff ``keys[order[i]]`` differs from its sorted
    predecessor; stability keeps every run's positions ascending.
    """
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    opens = np.ones(len(keys), dtype=bool)
    opens[1:] = ordered[1:] != ordered[:-1]
    return order, opens


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Distinct rows and each one's ascending row indices, by first appearance."""
    order, opens = _sort_keys(_row_keys(rows))
    starts = np.flatnonzero(opens)
    appearance = np.argsort(order[starts])
    ends = np.append(starts[1:], len(rows))[appearance].tolist()
    starts = starts[appearance]
    groups = [order[a:b] for a, b in zip(starts.tolist(), ends)]
    return rows[order[starts]], groups


def _canonical(rows: np.ndarray) -> np.ndarray:
    """Rows as sets: sorted, in-row duplicates masked with the pad, re-sorted.

    ``[2,1,2]`` and ``[1,2,2]`` both become ``[-1,1,2]``, so identical
    *sets* compare equal.
    """
    rows = np.sort(rows, axis=1)
    dup = np.zeros_like(rows, dtype=bool)
    dup[:, 1:] = rows[:, 1:] == rows[:, :-1]
    return np.sort(np.where(dup, _PAD, rows), axis=1)


def chunk_matrix_for(nest: LoopNest, data_space: DataSpace) -> np.ndarray:
    """The (N, R) per-iteration, per-reference data chunk id matrix.

    Row ``n`` is the nest's ``n``-th iteration in lexicographic order.
    Each reference is evaluated over the iteration box (one subscript at
    a time, see :mod:`repro.polyhedral.box`), bounds-checked, combined
    by row-major strides and divided into chunk ids, so no ``(N, depth)``
    iteration matrix is built.  An out-of-bounds subscript raises
    :class:`IndexError` naming the first offending index.
    """
    space = nest.space
    axes = loop_axes(space)
    refs = nest.references
    out = np.empty((space.size, len(refs)), dtype=np.int64)
    cells = out.reshape(space.shape + (len(refs),))
    for r, ref in enumerate(refs):
        cells[..., r] = _reference_chunks(ref, space, axes, data_space)
    return out


def _reference_chunks(ref, space, axes, data_space: DataSpace) -> np.ndarray:
    """One reference's chunk ids over the box (broadcastable to its shape)."""
    arr = data_space.array(ref.array_name)
    exprs = ref.map.exprs
    if len(exprs) != arr.ndim:
        raise ValueError(
            f"reference to {ref.array_name} has {len(exprs)} subscripts, "
            f"array has {arr.ndim} dims"
        )
    subs = [subscript_values(e, axes) for e in exprs]
    if not all(
        _surely_within(e, v, dim, space) for e, v, dim in zip(exprs, subs, arr.shape)
    ):
        _check_bounds(subs, arr, space)
    # Row-major offset, one subscript at a time: in bounds, every
    # partial sum is below the array size, so nothing wraps.
    offset, stride = subs[-1], 1
    for d in range(arr.ndim - 2, -1, -1):
        stride *= arr.shape[d + 1]
        offset = offset + subs[d] * stride
    return offset // data_space.chunk_elems + data_space.chunk_base(ref.array_name)


def _surely_within(expr, vals: np.ndarray, dim: int, space) -> bool:
    """Cheap proof that a subscript stays in ``[0, dim)`` over the box.

    An affine subscript's extremes lie at the box corners; a modulus
    subscript is in ``[0, modulus)``, so only a modulus wider than the
    dimension needs its values read.
    """
    if expr.modulus is None:
        lo, hi = affine_range(expr.coeffs, expr.const, space.lowers, space.uppers)
        return 0 <= lo and hi < dim
    return expr.modulus <= dim or bool((vals < dim).all())


def _check_bounds(subs: list[np.ndarray], arr, space) -> None:
    """Raise for the lexicographically first iteration with a bad subscript.

    Reads the int64 values themselves: subscripts are int64 arithmetic,
    so one whose exact extremes leave the array but whose wrapped values
    stay inside it is in bounds.
    """
    bad = np.zeros((1,) * space.depth, dtype=bool)
    for v, dim in zip(subs, arr.shape):
        bad = bad | (v < 0) | (v >= dim)
    if not bad.any():
        return
    first = int(np.argmax(np.broadcast_to(bad, space.shape)))
    index = [int(np.broadcast_to(v, space.shape).flat[first]) for v in subs]
    raise IndexError(f"index {index} out of bounds for {arr.name}{arr.shape}")


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

    # Group the raw rows by key, canonicalise one representative of each
    # distinct raw row, group those by key, and compose the two.
    order, opens = _sort_keys(_row_keys(chunk_matrix))
    canon = _canonical(chunk_matrix[order[opens]])
    _, tag_first, tag_of_raw = np.unique(
        _row_keys(canon), return_index=True, return_inverse=True
    )
    tag_of = np.empty(n_iters, dtype=np.int64)
    tag_of[order] = tag_of_raw[np.cumsum(opens) - 1]
    tags, groups = _group_rows(tag_of[:, None])
    distinct = canon[tag_first[tags[:, 0]]]

    r = data_space.num_chunks
    pads = (distinct == _PAD).sum(axis=1).tolist()
    chunks = [
        IterationChunk.from_ids(tuple(row[pad:]), r, ranks)
        for row, pad, ranks in zip(distinct.tolist(), pads, groups)
    ]
    # Scatter the canonical rows into the (chunks, r) 0/1 incidence matrix.
    incidence = np.zeros((len(distinct), r))
    owner = np.repeat(np.arange(len(distinct)), distinct.shape[1])
    cols = distinct.ravel()
    real = cols != _PAD
    incidence[owner[real], cols[real]] = 1.0

    chunk_set = IterationChunkSet(nest, data_space, chunks, incidence)
    assert chunk_set.total_iterations == n_iters
    return chunk_set
