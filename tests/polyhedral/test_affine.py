"""Tests for affine expressions and maps."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.polyhedral.affine import AffineExpr, AffineMap


class TestAffineExprConstruction:
    def test_iterator(self):
        e = AffineExpr.iterator(1, 3, offset=5)
        assert e.evaluate(np.array([10, 20, 30])) == 25

    def test_iterator_bounds_checked(self):
        with pytest.raises(ValueError):
            AffineExpr.iterator(3, 3)

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            AffineExpr([1], 0, modulus=0)

    def test_rejects_2d_coeffs(self):
        with pytest.raises(ValueError):
            AffineExpr([[1, 2]])


class TestAffineExprEvaluate:
    def test_vectorised_matches_scalar(self):
        e = AffineExpr([3, -2], 1)
        its = np.array([[0, 0], [1, 2], [5, -3]])
        expected = [1, 3 - 4 + 1, 15 + 6 + 1]
        assert e.evaluate(its).tolist() == expected

    def test_modulus_wraps(self):
        e = AffineExpr([1], 0, modulus=5)
        assert e.evaluate(np.array([[7], [-2]])).tolist() == [2, 3]

    def test_callable(self):
        e = AffineExpr([1], 2)
        assert e(np.array([3])) == 5

    def test_depth_mismatch_raises(self):
        with pytest.raises(ValueError):
            AffineExpr([1, 0]).evaluate(np.array([[1, 2, 3]]))

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        st.integers(-10, 10),
        st.lists(st.integers(-50, 50), min_size=1, max_size=4),
    )
    def test_matches_python_arith(self, coeffs, const, point):
        point = (point * 4)[: len(coeffs)]
        e = AffineExpr(coeffs, const)
        expected = sum(c * p for c, p in zip(coeffs, point)) + const
        assert int(e.evaluate(np.array(point))) == expected


class TestAffineExprAlgebra:
    def test_add(self):
        e = AffineExpr([1, 0], 1) + AffineExpr([0, 2], 3)
        assert e.evaluate(np.array([2, 5])) == 2 + 10 + 4

    def test_add_int(self):
        assert (AffineExpr([1], 0) + 5).const == 5

    def test_mul(self):
        e = 3 * AffineExpr([1], 2)
        assert e.evaluate(np.array([4])) == 18

    def test_mod_wrapping(self):
        e = AffineExpr([1], 0).mod(4)
        assert e.modulus == 4
        with pytest.raises(ValueError):
            e.mod(3)

    def test_cannot_add_modular(self):
        with pytest.raises(ValueError):
            AffineExpr([1], 0, modulus=3) + AffineExpr([1], 0)

    def test_shifted_applies_before_modulus(self):
        e = AffineExpr([1], 0, modulus=5).shifted(3)
        assert e.evaluate(np.array([4])) == (4 + 3) % 5

    def test_equality_hash(self):
        assert AffineExpr([1, 2], 3) == AffineExpr([1, 2], 3)
        assert hash(AffineExpr([1], 0, 4)) == hash(AffineExpr([1], 0, 4))
        assert AffineExpr([1], 0) != AffineExpr([1], 1)

    def test_repr_readable(self):
        assert "i0" in repr(AffineExpr([1, 0], 0))
        assert "%" in repr(AffineExpr([1], 0, modulus=3))


class TestAffineMap:
    def test_from_matrix_paper_example(self):
        # Paper §2: A[i1 + 3, i2 - 1] has Q = I, q = (3, -1).
        m = AffineMap.from_matrix([[1, 0], [0, 1]], [3, -1])
        assert m.evaluate(np.array([10, 20])).tolist() == [13, 19]

    def test_matrix_form_roundtrip(self):
        Q = [[1, 2], [0, -1]]
        q = [5, 6]
        Q2, q2 = AffineMap.from_matrix(Q, q).matrix_form()
        assert Q2.tolist() == Q and q2.tolist() == q

    def test_matrix_form_rejects_modular(self):
        m = AffineMap([AffineExpr([1], 0, modulus=4)])
        assert not m.is_affine
        with pytest.raises(ValueError):
            m.matrix_form()

    def test_vectorised_evaluate(self):
        m = AffineMap.from_matrix([[1, 0], [0, 1]], [0, 0])
        its = np.array([[1, 2], [3, 4]])
        assert m.evaluate(its).tolist() == [[1, 2], [3, 4]]

    def test_depth_consistency_enforced(self):
        with pytest.raises(ValueError):
            AffineMap([AffineExpr([1]), AffineExpr([1, 0])])

    def test_needs_subscripts(self):
        with pytest.raises(ValueError):
            AffineMap([])

    def test_bad_matrix_shapes(self):
        with pytest.raises(ValueError):
            AffineMap.from_matrix([[1, 0]], [1, 2])
