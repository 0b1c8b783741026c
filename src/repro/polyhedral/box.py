"""Affine subscripts evaluated over a rectangular iteration box.

An :class:`~repro.polyhedral.iterspace.IterationSpace` is always a
Cartesian box, so a subscript ``c·i + q`` (with or without a modulus)
over the whole space is a sum of per-loop terms: ``c_k · arange(L_k,
U_k + 1)`` laid along axis ``k``.  :func:`loop_axes` builds those
per-loop vectors once and :func:`subscript_values` broadcasts them, so
no ``(N, depth)`` iteration matrix is ever built and a subscript that
ignores a loop stays of size 1 along that loop's axis.  Every result
has ``ndim == depth`` and broadcasts to ``space.shape``; raveling its
broadcast in C order lists the values in lexicographic iteration order.

The arithmetic is int64 and wraps exactly as the ``(N, depth) @ c``
product did, since both compute the same sum modulo 2⁶⁴.

:func:`affine_range` gives the exact extremes of ``c·i + q`` over a box
(they lie at its corners); it backs the bounds check of the chunk
matrix and the Banerjee dependence test.
"""

from __future__ import annotations

import numpy as np

from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.iterspace import IterationSpace

__all__ = ["affine_range", "loop_axes", "subscript_values"]


def loop_axes(space: IterationSpace) -> tuple[np.ndarray, ...]:
    """One int64 ``arange(lower, upper + 1)`` per loop, laid along its axis."""
    depth = space.depth
    axes = []
    for k, bound in enumerate(space.bounds):
        shape = [1] * depth
        shape[k] = bound.trip_count
        axes.append(bound.values().reshape(shape))
    return tuple(axes)


def subscript_values(expr: AffineExpr, axes: tuple[np.ndarray, ...]) -> np.ndarray:
    """``expr`` over the box whose :func:`loop_axes` are ``axes``.

    The result broadcasts to the space's shape; it has extent 1 along
    every loop whose coefficient is zero.
    """
    if expr.depth != len(axes):
        raise ValueError(
            f"box has {len(axes)} loops, expression expects {expr.depth}"
        )
    vals = np.full((1,) * len(axes), expr.const, dtype=np.int64)
    for c, axis in zip(expr.coeffs.tolist(), axes):
        if c:
            vals = vals + c * axis
    if expr.modulus is not None:
        vals = np.mod(vals, expr.modulus)
    return vals


def affine_range(coeffs, const: int, lowers, uppers) -> tuple[int, int]:
    """Exact ``(min, max)`` of ``coeffs·x + const`` over ``lowers <= x <= uppers``.

    Python integers, so the extremes never wrap: each term is minimised
    (maximised) independently at one end of its loop.
    """
    lo = hi = int(const)
    terms = zip(
        np.asarray(coeffs).tolist(), np.asarray(lowers).tolist(), np.asarray(uppers).tolist()
    )
    for c, l, u in terms:
        a, b = c * l, c * u
        lo += min(a, b)
        hi += max(a, b)
    return lo, hi
