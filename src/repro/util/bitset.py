"""Tag bit-vectors (paper §4.2).

The paper assigns every loop iteration an *r*-bit tag ``Λ = λ0 λ1 … λ(r-1)``
where bit *k* is set iff the iteration touches data chunk ``π_k``.  The
**dot product** ``Λi • Λj`` — for 0/1 tags ``popcount(Λi AND Λj)``, the
number of data chunks the two tags share — is the edge weight of the
affinity graph (Fig. 5).

Tags are sparse in practice (an iteration touches a handful of chunks out
of thousands), so :class:`Tag` stores the set of set-bit indices and the
universe size ``r``.  Clustering works on per-cluster chunk count arrays
(:mod:`repro.core.clustering`), not on tags.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = ["Tag"]


class Tag:
    """An immutable *r*-bit data-chunk access tag.

    Parameters
    ----------
    chunks:
        Indices of the data chunks the tagged iteration(s) access,
        i.e. the positions of the set bits.
    nbits:
        The tag width *r* (total number of data chunks in the data space).
    """

    __slots__ = ("chunks", "nbits", "_hash")

    def __init__(self, chunks: Iterable[int], nbits: int):
        chunkset = frozenset(int(c) for c in chunks)
        if nbits <= 0:
            raise ValueError(f"tag width must be positive, got {nbits}")
        for c in chunkset:
            if not 0 <= c < nbits:
                raise ValueError(f"chunk index {c} outside [0, {nbits})")
        object.__setattr__(self, "chunks", chunkset)
        object.__setattr__(self, "nbits", int(nbits))
        object.__setattr__(self, "_hash", hash((chunkset, int(nbits))))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Tag is immutable")

    # -- classic representations -------------------------------------------------

    @classmethod
    def from_bitstring(cls, bits: str) -> "Tag":
        """Build a tag from the paper's literal notation, e.g. ``"101010000000"``.

        The leftmost character is ``λ0`` (chunk 0), matching Fig. 8.
        """
        if not bits or any(ch not in "01" for ch in bits):
            raise ValueError(f"not a bitstring: {bits!r}")
        return cls((k for k, ch in enumerate(bits) if ch == "1"), len(bits))

    def to_bitstring(self) -> str:
        """Render in the paper's ``λ0 λ1 …`` left-to-right notation."""
        return "".join("1" if k in self.chunks else "0" for k in range(self.nbits))

    def to_vector(self) -> np.ndarray:
        """Dense 0/1 ``int64`` vector of length ``nbits``."""
        v = np.zeros(self.nbits, dtype=np.int64)
        if self.chunks:
            v[np.fromiter(self.chunks, dtype=np.int64)] = 1
        return v

    # -- algebra -----------------------------------------------------------------

    def dot(self, other: "Tag") -> int:
        """``Λi • Λj`` = number of common set bits = popcount(AND)."""
        if self.nbits != other.nbits:
            raise ValueError(f"tag widths differ: {self.nbits} != {other.nbits}")
        small, large = (
            (self.chunks, other.chunks)
            if len(self.chunks) <= len(other.chunks)
            else (other.chunks, self.chunks)
        )
        return sum(1 for c in small if c in large)

    # -- dunder ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tag)
            and self.nbits == other.nbits
            and self.chunks == other.chunks
        )

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return self.nbits

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.chunks))

    def __contains__(self, chunk: int) -> bool:
        return chunk in self.chunks

    def __repr__(self) -> str:
        if self.nbits <= 32:
            return f"Tag({self.to_bitstring()!r})"
        return f"Tag(nbits={self.nbits}, chunks={sorted(self.chunks)!r})"
