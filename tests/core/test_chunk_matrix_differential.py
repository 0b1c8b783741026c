"""Differential: the box-evaluated chunk matrix vs the iteration-matrix oracle.

``chunk_matrix_for`` evaluates each subscript over the rectangular
iteration box by broadcasting one vector per loop, checks bounds at the
box corners (or, for a modulus wider than its dimension, on the values)
and combines subscripts by row-major strides.  The oracle in
``tests/core/scalar_reference.py`` enumerates the ``(N, depth)``
iteration matrix and linearises every index row.  Both must give the
same matrix, or raise the same ``IndexError`` text.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chunking import chunk_matrix_for
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.arrays import DataSpace, DiskArray
from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef

from tests.core.scalar_reference import chunk_matrix


def outcome(fn, nest, ds):
    try:
        return "ok", fn(nest, ds).tolist()
    except IndexError as exc:
        return "IndexError", str(exc)


@st.composite
def subscript(draw, space, dim):
    """One subscript for a dimension of extent ``dim``.

    Mostly in bounds: an affine subscript is shifted so its corner range
    lands inside ``[0, dim)`` when it fits, else wrapped in a modulus.
    Some moduli are wider than the dimension and some affine subscripts
    are pushed out, so both error paths are drawn too.
    """
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=space.depth, max_size=space.depth))
    corners = zip(coeffs, space.lowers.tolist(), space.uppers.tolist())
    lo = hi = 0
    for c, l, u in corners:
        lo, hi = lo + min(c * l, c * u), hi + max(c * l, c * u)
    kind = draw(st.sampled_from(["affine"] * 6 + ["mod"] * 3 + ["wide-mod"] * 2 + ["out"]))
    fits = hi - lo < dim
    if kind == "affine" and fits:
        return AffineExpr(coeffs, draw(st.integers(-lo, dim - 1 - hi)))
    if kind == "out":
        return AffineExpr(coeffs, draw(st.integers(-hi - 3, dim + 2 - lo)))
    if kind == "wide-mod":
        modulus = dim + draw(st.integers(1, 3))
        if fits:  # in bounds: the values land in [0, dim) after the modulus
            shift = modulus * draw(st.integers(-2, 2))
            return AffineExpr(coeffs, shift + draw(st.integers(-lo, dim - 1 - hi)), modulus)
        return AffineExpr(coeffs, draw(st.integers(-6, 6)), modulus)
    return AffineExpr(coeffs, draw(st.integers(-6, 6)), draw(st.integers(1, dim)))


@st.composite
def cases(draw):
    depth = draw(st.integers(1, 3))
    bounds = []
    for _ in range(depth):
        lower = draw(st.integers(-5, 5))
        bounds.append((lower, lower + draw(st.integers(0, 5))))
    space = IterationSpace(bounds)
    arrays = [
        DiskArray(
            f"A{k}",
            tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))),
        )
        for k in range(draw(st.integers(1, 3)))
    ]
    refs = []
    for _ in range(draw(st.integers(1, 4))):
        arr = draw(st.sampled_from(arrays))
        subs = [draw(subscript(space, dim)) for dim in arr.shape]
        refs.append(ArrayRef(arr.name, subs, is_write=draw(st.booleans())))
    ds = DataSpace(arrays, draw(st.integers(1, 7)))
    return LoopNest("t", space, refs), ds


@settings(max_examples=400, deadline=None)
@given(cases())
def test_box_chunk_matrix_matches_iteration_matrix(case):
    nest, ds = case
    got = outcome(chunk_matrix_for, nest, ds)
    assert got == outcome(chunk_matrix, nest, ds)
    if got[0] == "ok":
        assert chunk_matrix_for(nest, ds).dtype == np.int64


def test_several_arrays_with_ragged_chunks():
    """Three arrays, 5-element chunks that divide none of them: bases 0, 3, 8."""
    ds = DataSpace(
        [DiskArray("A", (11,)), DiskArray("B", (4, 6)), DiskArray("C", (2, 3, 3))], 5
    )
    assert [ds.chunk_base(n) for n in "ABC"] == [0, 3, 8]
    space = IterationSpace([(-2, 1), (1, 3)])
    refs = [
        ArrayRef("A", [AffineExpr([-2, 1], 3)]),
        ArrayRef("B", [AffineExpr([1, 0], 2), AffineExpr([0, 1], 0, modulus=6)]),
        ArrayRef("C", [AffineExpr([0, 0], 1), AffineExpr([1, 1], 0, modulus=3), AffineExpr([0, -1], 3)]),
    ]
    nest = LoopNest("t", space, refs)
    got = chunk_matrix_for(nest, ds)
    assert np.array_equal(got, chunk_matrix(nest, ds))
    assert got.min() >= 0 and got.max() < ds.num_chunks


def test_out_of_bounds_names_the_first_offending_index():
    """The lexicographically first bad iteration is (-2, 0): B[0, -1]."""
    ds = DataSpace([DiskArray("A", (8,)), DiskArray("B", (4, 5))], 3)
    space = IterationSpace([(-2, 1), (0, 3)])
    refs = [
        ArrayRef("A", [AffineExpr([1, 1], 2)]),
        ArrayRef("B", [AffineExpr([1, 0], 2), AffineExpr([0, 2], -1)]),
    ]
    nest = LoopNest("t", space, refs)
    text = "index [0, -1] out of bounds for B(4, 5)"
    with pytest.raises(IndexError) as box:
        chunk_matrix_for(nest, ds)
    assert str(box.value) == text
    with pytest.raises(IndexError) as oracle:
        chunk_matrix(nest, ds)
    assert str(oracle.value) == text


def test_wide_modulus_out_of_bounds():
    """``(i % 6)`` into a 4-element dimension fails first at i = 4."""
    ds = DataSpace([DiskArray("A", (4,))], 2)
    nest = LoopNest("t", IterationSpace([(1, 7)]), [ArrayRef("A", [AffineExpr([1], 0, 6)])])
    with pytest.raises(IndexError, match=r"^index \[4\] out of bounds for A\(4,\)$"):
        chunk_matrix_for(nest, ds)
    assert outcome(chunk_matrix_for, nest, ds) == outcome(chunk_matrix, nest, ds)


def test_wrapped_subscript_matches_int64_product():
    """``2**62 · i`` at i = 4 wraps to 0 in int64, as the matrix product did.

    The exact corner range (2**64) leaves the array, so the bounds check
    falls back to the int64 values, which are in bounds.
    """
    ds = DataSpace([DiskArray("A", (8,))], 4)
    nest = LoopNest("t", IterationSpace([(4, 4)]), [ArrayRef("A", [AffineExpr([2**62], 1)])])
    assert chunk_matrix_for(nest, ds).tolist() == [[0]]
    assert chunk_matrix(nest, ds).tolist() == [[0]]
