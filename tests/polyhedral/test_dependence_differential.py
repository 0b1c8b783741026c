"""Differential: the int64-encoded exact dependence test vs tuple sets.

``_exact_or_conservative`` encodes each touched index row as one int64
over the joint bounding box of both references and tests the overlap
with ``np.isin``; the oracle compares Python tuple sets.  Both must
agree on every input, including the overflow fallback.
"""

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


def test_small_boxes_never_fall_back(monkeypatch):
    def boom(ia, ib):
        raise AssertionError("fallback taken for an encodable box")

    monkeypatch.setattr(dependence, "_overlap_by_tuples", boom)
    space = IterationSpace([(0, 15), (0, 15)])
    a = ArrayRef("A", [AffineExpr([1, 1], 0, modulus=7), AffineExpr([0, 1])], is_write=True)
    b = ArrayRef("A", [AffineExpr([2, 0], -3), AffineExpr([1, 0], 1)])
    assert dependence._exact_or_conservative(a, b, space) == exact_overlap(a, b, space)
