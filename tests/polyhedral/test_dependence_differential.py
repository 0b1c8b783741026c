"""Differential: the int64-encoded exact dependence test vs tuple sets.

``_exact_or_conservative`` evaluates both references over the iteration
box, encodes each touched index tuple as one int64 over the joint
bounding box of both references and tests the overlap with a boolean
mark array (small boxes) or ``np.isin`` (large ones); boxes too large
to encode fall back to tuple sets.  The oracle compares Python tuple
sets over the enumerated iteration matrix.  Both must agree on every
input, on each of the three branches.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.polyhedral import dependence
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.references import ArrayRef

from tests.core.scalar_reference import exact_overlap


@st.composite
def spaces(draw):
    depth = draw(st.integers(1, 3))
    bounds = []
    for _ in range(depth):
        lo = draw(st.integers(-4, 4))
        bounds.append((lo, lo + draw(st.integers(0, 5))))
    return IterationSpace(bounds)


@st.composite
def subscripts(draw, depth):
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=depth, max_size=depth))
    const = draw(st.integers(-6, 6))
    modulus = draw(st.one_of(st.none(), st.integers(1, 7)))
    return AffineExpr(coeffs, const, modulus)


@st.composite
def ref_pairs(draw):
    space = draw(spaces())
    ndim_a = draw(st.integers(1, 3))
    # Mostly the same rank; sometimes not (tuples of unequal length).
    ndim_b = draw(st.one_of(st.just(ndim_a), st.integers(1, 3)))
    a = ArrayRef("A", [draw(subscripts(space.depth)) for _ in range(ndim_a)], is_write=True)
    b = ArrayRef("A", [draw(subscripts(space.depth)) for _ in range(ndim_b)])
    return a, b, space


@settings(max_examples=400, deadline=None)
@given(ref_pairs())
def test_encoded_overlap_matches_tuple_sets(case):
    a, b, space = case
    expected = exact_overlap(a, b, space)
    assert dependence._exact_or_conservative(a, b, space) == expected
    assert dependence._exact_or_conservative(b, a, space) == expected


def test_shared_element_found():
    space = IterationSpace([(0, 9)])
    a = ArrayRef("A", [AffineExpr([1], 0, modulus=4)], is_write=True)
    b = ArrayRef("A", [AffineExpr([2], -5)])
    assert exact_overlap(a, b, space)
    assert dependence._exact_or_conservative(a, b, space)


def test_disjoint_negative_offsets():
    space = IterationSpace([(-3, 3), (0, 2)])
    a = ArrayRef("A", [AffineExpr([1, 0], -10), AffineExpr([0, 1], 0, modulus=2)], is_write=True)
    b = ArrayRef("A", [AffineExpr([1, 0], 10), AffineExpr([0, 1])])
    assert not exact_overlap(a, b, space)
    assert not dependence._exact_or_conservative(a, b, space)


class TestOverflowFallback:
    """Boxes of >= 2**62 cells cannot be int64-encoded: tuple sets decide."""

    def _refs(self, shift):
        big = 1 << 40
        a = ArrayRef(
            "A",
            [AffineExpr([big, 0], 0, modulus=big * 8), AffineExpr([0, big])],
            is_write=True,
        )
        b = ArrayRef(
            "A",
            [AffineExpr([big, 0], shift, modulus=big * 8), AffineExpr([0, big])],
        )
        return a, b

    def _run(self, monkeypatch, a, b, space):
        calls = []
        real = dependence._overlap_by_tuples

        def spy(ia, ib):
            calls.append(len(ia))
            return real(ia, ib)

        monkeypatch.setattr(dependence, "_overlap_by_tuples", spy)
        got = dependence._exact_or_conservative(a, b, space)
        assert calls, "the overflow fallback was not taken"
        return got

    def test_overlap(self, monkeypatch):
        space = IterationSpace([(0, 7), (0, 7)])
        a, b = self._refs(0)
        assert self._run(monkeypatch, a, b, space) is True
        assert exact_overlap(a, b, space)

    def test_disjoint(self, monkeypatch):
        space = IterationSpace([(0, 7), (0, 7)])
        a, b = self._refs(1)
        assert self._run(monkeypatch, a, b, space) is False
        assert not exact_overlap(a, b, space)


class Branches:
    """Counts the calls of ``np.isin`` and of the tuple-set fallback."""

    def __init__(self, monkeypatch):
        self.isin = self.tuples = 0
        real_isin, real_tuples = np.isin, dependence._overlap_by_tuples

        def isin(*args, **kwargs):
            self.isin += 1
            return real_isin(*args, **kwargs)

        def tuples(ia, ib):
            self.tuples += 1
            return real_tuples(ia, ib)

        monkeypatch.setattr(np, "isin", isin)
        monkeypatch.setattr(dependence, "_overlap_by_tuples", tuples)

    @property
    def taken(self):
        if self.tuples:
            return "tuples"
        return "isin" if self.isin else "marks"


#: (branch, write subscripts, read subscripts, loop bounds, overlap?)
BRANCH_CASES = [
    # A 2-D index box of 8 x 16 cells: the mark array decides.
    ("marks", [AffineExpr([1, 0], 0, modulus=8), AffineExpr([0, 1])],
     [AffineExpr([0, 1], 3, modulus=8), AffineExpr([1, 1], -2)], [(0, 5), (0, 9)], True),
    ("marks", [AffineExpr([2, 0], 0, modulus=8), AffineExpr([0, 1])],
     [AffineExpr([2, 0], 1, modulus=8), AffineExpr([0, 1])], [(0, 5), (0, 9)], False),
    # Codes spread over ~10**7 cells, past the mark bound: np.isin decides.
    ("isin", [AffineExpr([1_000_003], 0, modulus=10**7)],
     [AffineExpr([3], 2_000_006)], [(0, 99)], True),
    ("isin", [AffineExpr([1_000_003], 0, modulus=10**7)],
     [AffineExpr([3], 2_000_007)], [(0, 99)], False),
    # A 2**41 x 2**41 index box cannot be encoded: tuple sets decide.
    ("tuples", [AffineExpr([1 << 40], 0, modulus=1 << 41), AffineExpr([1 << 40])],
     [AffineExpr([1 << 40], 1 << 40, modulus=1 << 41), AffineExpr([1 << 40], -(1 << 40))], [(0, 1)], True),
    ("tuples", [AffineExpr([1 << 40], 0, modulus=1 << 41), AffineExpr([1 << 40])],
     [AffineExpr([1 << 40], 1, modulus=1 << 41), AffineExpr([1 << 40], -(1 << 40))], [(0, 1)], False),
]


@pytest.mark.parametrize("branch, subs_a, subs_b, bounds, overlap", BRANCH_CASES)
def test_each_overlap_branch_matches_tuple_sets(monkeypatch, branch, subs_a, subs_b, bounds, overlap):
    space = IterationSpace(bounds)
    a = ArrayRef("A", subs_a, is_write=True)
    b = ArrayRef("A", subs_b)
    assert exact_overlap(a, b, space) is overlap
    branches = Branches(monkeypatch)
    assert dependence._exact_or_conservative(a, b, space) is overlap
    assert branches.taken == branch
    assert dependence._exact_or_conservative(b, a, space) is overlap


def test_small_boxes_never_fall_back(monkeypatch):
    def boom(ia, ib):
        raise AssertionError("fallback taken for an encodable box")

    monkeypatch.setattr(dependence, "_overlap_by_tuples", boom)
    space = IterationSpace([(0, 15), (0, 15)])
    a = ArrayRef("A", [AffineExpr([1, 1], 0, modulus=7), AffineExpr([0, 1])], is_write=True)
    b = ArrayRef("A", [AffineExpr([2, 0], -3), AffineExpr([1, 0], 1)])
    assert dependence._exact_or_conservative(a, b, space) == exact_overlap(a, b, space)
