"""Array references inside a loop body.

An :class:`ArrayRef` binds an :class:`~repro.polyhedral.affine.AffineMap`
to a named disk-resident array.  Which global data chunk every iteration
touches through a reference — the raw material for the iteration tags of
§4.2 — is computed by :func:`~repro.core.chunking.chunk_matrix_for`,
which evaluates the map's subscripts over the nest's iteration box
(:mod:`repro.polyhedral.box`) rather than over an iteration matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.polyhedral.affine import AffineExpr, AffineMap

__all__ = ["ArrayRef"]


class ArrayRef:
    """A single reference ``array[ R(i) ]`` in a loop body."""

    __slots__ = ("array_name", "map", "is_write")

    def __init__(self, array_name: str, subscripts: AffineMap | Sequence[AffineExpr], *, is_write: bool = False):
        if not array_name:
            raise ValueError("reference needs an array name")
        self.array_name = array_name
        self.map = subscripts if isinstance(subscripts, AffineMap) else AffineMap(list(subscripts))
        self.is_write = bool(is_write)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_matrix(
        cls,
        array_name: str,
        Q: Sequence[Sequence[int]],
        q: Sequence[int],
        *,
        is_write: bool = False,
    ) -> "ArrayRef":
        """Construct from the paper's access-matrix form ``R(i) = Q·i + q``."""
        return cls(array_name, AffineMap.from_matrix(Q, q), is_write=is_write)

    @classmethod
    def identity(
        cls, array_name: str, depth: int, offsets: Sequence[int] | None = None
    ) -> "ArrayRef":
        """The uniform reference ``A[i0+o0, i1+o1, …]``."""
        offs = [0] * depth if offsets is None else list(offsets)
        if len(offs) != depth:
            raise ValueError("one offset per loop expected")
        exprs = [AffineExpr.iterator(k, depth, offs[k]) for k in range(depth)]
        return cls(array_name, exprs)

    # -- shape -------------------------------------------------------------------

    @property
    def depth(self) -> int:
        return self.map.depth

    @property
    def ndim(self) -> int:
        return self.map.ndim

    @property
    def is_affine(self) -> bool:
        return self.map.is_affine

    def matrix_form(self) -> tuple[np.ndarray, np.ndarray]:
        return self.map.matrix_form()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayRef)
            and self.array_name == other.array_name
            and self.map == other.map
            and self.is_write == other.is_write
        )

    def __hash__(self) -> int:
        return hash((self.array_name, self.map, self.is_write))

    def __repr__(self) -> str:
        kind = "W" if self.is_write else "R"
        return f"ArrayRef({self.array_name}, {self.map.exprs!r}, {kind})"
