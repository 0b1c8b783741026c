"""Disk-resident arrays and the concatenated data space (paper §4.2).

The paper divides "the set of data elements of all disk-resident arrays
combined" into ``r`` equal-sized chunks, partitioning each array
separately (no chunk spans two arrays) while numbering chunks
consecutively across arrays (Fig. 4).  :class:`DataSpace` implements
exactly that: per-array chunk bases over a row-major element layout.
:func:`~repro.core.chunking.chunk_matrix_for` maps a reference's
multi-indices to global data chunk ids with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.util.validation import check_positive

__all__ = ["DiskArray", "DataSpace"]


@dataclass(frozen=True)
class DiskArray:
    """A disk-resident multi-dimensional array.

    ``shape`` counts elements per dimension; ``element_size`` is in bytes
    and only matters when converting chunk counts to byte capacities.
    """

    name: str
    shape: tuple[int, ...]
    element_size: int = 8

    def __post_init__(self):
        if not self.name:
            raise ValueError("array needs a name")
        if not self.shape:
            raise ValueError("array needs at least one dimension")
        for d in self.shape:
            check_positive(f"dimension of {self.name}", d)
        check_positive("element_size", self.element_size)
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        """Total element count."""
        n = 1
        for d in self.shape:
            n *= d
        return n


class DataSpace:
    """All disk-resident arrays of a program, chunked for tagging.

    Parameters
    ----------
    arrays:
        The ordered arrays (order fixes the global chunk numbering).
    chunk_elems:
        Data chunk size in *elements*.  The paper uses 64 KB chunks of
        8-byte elements, i.e. 8192 elements; scaled-down workloads use
        smaller chunks with the same ratios.
    """

    __slots__ = ("arrays", "chunk_elems", "_by_name", "_chunk_base", "_nchunks")

    def __init__(self, arrays: Sequence[DiskArray], chunk_elems: int):
        if not arrays:
            raise ValueError("data space needs at least one array")
        self.chunk_elems = check_positive("chunk_elems", chunk_elems)
        self.arrays = tuple(arrays)
        self._by_name = {}
        for idx, arr in enumerate(self.arrays):
            if arr.name in self._by_name:
                raise ValueError(f"duplicate array name {arr.name!r}")
            self._by_name[arr.name] = idx
        # Per-array first chunk id: arrays are chunked separately, labels
        # run consecutively across arrays (paper Fig. 4).
        bases = [0]
        for arr in self.arrays:
            bases.append(bases[-1] + self._chunks_in(arr))
        self._chunk_base = tuple(bases)
        self._nchunks = bases[-1]

    def _chunks_in(self, arr: DiskArray) -> int:
        return -(-arr.size // self.chunk_elems)  # ceil div

    # -- lookup -------------------------------------------------------------------

    @property
    def num_chunks(self) -> int:
        """The tag width *r*."""
        return self._nchunks

    def array_index(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown array {name!r}") from None

    def array(self, name: str) -> DiskArray:
        return self.arrays[self.array_index(name)]

    def chunk_base(self, name: str) -> int:
        """Global id of the first chunk of the named array."""
        return self._chunk_base[self.array_index(name)]

    def __repr__(self) -> str:
        names = ", ".join(a.name for a in self.arrays)
        return (
            f"DataSpace([{names}], chunk_elems={self.chunk_elems}, "
            f"num_chunks={self.num_chunks})"
        )
