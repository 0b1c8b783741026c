"""Affine expressions and maps over loop iterators.

An array reference in the paper is ``R(i) = Q·i + q`` with access matrix
``Q`` and offset vector ``q`` (§2).  We represent each subscript as an
:class:`AffineExpr` (one row of ``Q`` plus one entry of ``q``), optionally
wrapped in a modulus to express subscripts like ``A[i % d]`` from the
paper's running example (Fig. 6).  A full reference is an
:class:`AffineMap` — a stack of subscript expressions.

Evaluation is vectorised: expressions evaluate over an ``(N, n)`` matrix
of N iteration vectors at once.  Over a whole rectangular iteration
space, :mod:`repro.polyhedral.box` evaluates them without building that
matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["AffineExpr", "AffineMap"]


class AffineExpr:
    """``c0*i0 + c1*i1 + … + const``, optionally taken modulo a constant.

    Parameters
    ----------
    coeffs:
        Iterator coefficients, one per loop (outermost first).  Stored as
        an ``int64`` vector; its length fixes the nest depth the
        expression applies to.
    const:
        The additive constant.
    modulus:
        If given, the evaluated value is reduced modulo this positive
        constant — needed for subscripts such as ``A[i % d]``.
    """

    __slots__ = ("coeffs", "const", "modulus")

    def __init__(
        self,
        coeffs: Sequence[int],
        const: int = 0,
        modulus: int | None = None,
    ):
        self.coeffs = np.asarray(list(coeffs), dtype=np.int64)
        if self.coeffs.ndim != 1:
            raise ValueError("coeffs must be a 1-D sequence")
        self.const = int(const)
        if modulus is not None:
            modulus = int(modulus)
            if modulus <= 0:
                raise ValueError(f"modulus must be positive, got {modulus}")
        self.modulus = modulus

    # -- constructors -------------------------------------------------------------

    @classmethod
    def iterator(cls, index: int, depth: int, offset: int = 0) -> "AffineExpr":
        """The expression ``i_index + offset`` in a ``depth``-deep nest."""
        if not 0 <= index < depth:
            raise ValueError(f"iterator index {index} outside nest depth {depth}")
        coeffs = [0] * depth
        coeffs[index] = 1
        return cls(coeffs, offset)

    # -- algebra ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        return int(self.coeffs.shape[0])

    @property
    def is_affine(self) -> bool:
        """True when there is no modulus wrapper (pure ``Q·i + q`` row)."""
        return self.modulus is None

    def mod(self, modulus: int) -> "AffineExpr":
        """Wrap this expression in a modulus (must not already have one)."""
        if self.modulus is not None:
            raise ValueError("expression already has a modulus")
        return AffineExpr(self.coeffs, self.const, modulus)

    def shifted(self, delta: int) -> "AffineExpr":
        """The expression plus a constant (applied before any modulus)."""
        return AffineExpr(self.coeffs, self.const + int(delta), self.modulus)

    def __add__(self, other: "AffineExpr | int") -> "AffineExpr":
        if isinstance(other, int):
            return self.shifted(other)
        if self.modulus is not None or other.modulus is not None:
            raise ValueError("cannot add expressions carrying a modulus")
        if self.depth != other.depth:
            raise ValueError("depth mismatch")
        return AffineExpr(self.coeffs + other.coeffs, self.const + other.const)

    def __mul__(self, scalar: int) -> "AffineExpr":
        if self.modulus is not None:
            raise ValueError("cannot scale an expression carrying a modulus")
        return AffineExpr(self.coeffs * int(scalar), self.const * int(scalar))

    __rmul__ = __mul__

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, iterations: np.ndarray) -> np.ndarray:
        """Evaluate over an ``(N, depth)`` matrix of iteration vectors.

        Returns an ``int64`` vector of length N.  A single iteration may
        be passed as a 1-D vector of length ``depth``.
        """
        its = np.asarray(iterations, dtype=np.int64)
        single = its.ndim == 1
        if single:
            its = its[None, :]
        if its.shape[1] != self.depth:
            raise ValueError(
                f"iteration vectors have {its.shape[1]} dims, expression expects {self.depth}"
            )
        vals = its @ self.coeffs + self.const
        if self.modulus is not None:
            vals = np.mod(vals, self.modulus)
        return vals[0] if single else vals

    def __call__(self, iterations: np.ndarray) -> np.ndarray:
        return self.evaluate(iterations)

    # -- dunder -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AffineExpr)
            and np.array_equal(self.coeffs, other.coeffs)
            and self.const == other.const
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((tuple(self.coeffs.tolist()), self.const, self.modulus))

    def __repr__(self) -> str:
        terms = [
            f"{'' if c == 1 else c}i{k}"
            for k, c in enumerate(self.coeffs.tolist())
            if c
        ]
        if self.const or not terms:
            terms.append(str(self.const))
        body = " + ".join(terms).replace("+ -", "- ")
        if self.modulus is not None:
            return f"AffineExpr(({body}) % {self.modulus})"
        return f"AffineExpr({body})"


class AffineMap:
    """A stack of subscript expressions: one reference ``R(i) = Q·i + q``.

    ``exprs[d]`` computes the subscript for array dimension ``d``.
    """

    __slots__ = ("exprs",)

    def __init__(self, exprs: Sequence[AffineExpr]):
        exprs = list(exprs)
        if not exprs:
            raise ValueError("a map needs at least one subscript expression")
        depth = exprs[0].depth
        for e in exprs:
            if e.depth != depth:
                raise ValueError("all subscript expressions must share nest depth")
        self.exprs = exprs

    @classmethod
    def from_matrix(
        cls, Q: Sequence[Sequence[int]], q: Sequence[int]
    ) -> "AffineMap":
        """Construct from the paper's ``(Q, q)`` access-matrix form."""
        Qarr = np.asarray(Q, dtype=np.int64)
        qarr = np.asarray(q, dtype=np.int64)
        if Qarr.ndim != 2 or qarr.ndim != 1 or Qarr.shape[0] != qarr.shape[0]:
            raise ValueError("Q must be (m, n) and q must be (m,)")
        return cls([AffineExpr(row, off) for row, off in zip(Qarr, qarr)])

    @property
    def depth(self) -> int:
        return self.exprs[0].depth

    @property
    def ndim(self) -> int:
        """Number of array dimensions this map subscripts."""
        return len(self.exprs)

    @property
    def is_affine(self) -> bool:
        return all(e.is_affine for e in self.exprs)

    def matrix_form(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(Q, q)``; raises if any subscript carries a modulus."""
        if not self.is_affine:
            raise ValueError("map carries modulo subscripts; no (Q, q) form")
        Q = np.stack([e.coeffs for e in self.exprs])
        q = np.asarray([e.const for e in self.exprs], dtype=np.int64)
        return Q, q

    def evaluate(self, iterations: np.ndarray) -> np.ndarray:
        """Map ``(N, depth)`` iterations to ``(N, ndim)`` array indices."""
        its = np.asarray(iterations, dtype=np.int64)
        single = its.ndim == 1
        if single:
            its = its[None, :]
        out = np.stack([e.evaluate(its) for e in self.exprs], axis=1)
        return out[0] if single else out

    def __call__(self, iterations: np.ndarray) -> np.ndarray:
        return self.evaluate(iterations)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AffineMap) and self.exprs == other.exprs

    def __hash__(self) -> int:
        return hash(tuple(self.exprs))

    def __repr__(self) -> str:
        return f"AffineMap({self.exprs!r})"
