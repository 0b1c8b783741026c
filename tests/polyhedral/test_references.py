"""Tests for array references."""

import numpy as np
import pytest

from repro.core.chunking import chunk_matrix_for
from repro.polyhedral.affine import AffineExpr, AffineMap
from repro.polyhedral.arrays import DataSpace, DiskArray
from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef


@pytest.fixture
def ds():
    return DataSpace([DiskArray("A", (120,)), DiskArray("B", (4, 30))], 10)


def touched(ref, bounds, ds):
    """The chunk each iteration of the box ``bounds`` touches via ``ref``."""
    nest = LoopNest("t", IterationSpace(bounds), [ref])
    return chunk_matrix_for(nest, ds)[:, 0]


class TestConstruction:
    def test_from_exprs(self):
        r = ArrayRef("A", [AffineExpr([1], 3)])
        assert r.depth == 1 and r.ndim == 1

    def test_from_matrix(self):
        r = ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [3, -1])
        assert r.map.evaluate(np.array([5, 6])).tolist() == [8, 5]

    def test_identity(self):
        r = ArrayRef.identity("B", 2, offsets=[1, 2])
        assert r.map.evaluate(np.array([0, 0])).tolist() == [1, 2]

    def test_identity_offset_count_checked(self):
        with pytest.raises(ValueError):
            ArrayRef.identity("A", 2, offsets=[1])

    def test_needs_name(self):
        with pytest.raises(ValueError):
            ArrayRef("", [AffineExpr([1])])

    def test_write_flag(self):
        r = ArrayRef("A", [AffineExpr([1])], is_write=True)
        assert r.is_write
        assert "W" in repr(r)


class TestTouchedChunks:
    def test_1d_strided(self, ds):
        r = ArrayRef("A", [AffineExpr([1], 20)])
        assert touched(r, [(0, 40)], ds)[[0, 5, 40]].tolist() == [2, 2, 6]

    def test_modular_reference(self, ds):
        r = ArrayRef("A", [AffineExpr([1], 0, modulus=10)])
        assert touched(r, [(0, 99)], ds)[[0, 15, 99]].tolist() == [0, 0, 0]

    def test_2d_reference_hits_second_array(self, ds):
        r = ArrayRef("B", [AffineExpr([1, 0]), AffineExpr([0, 1])])
        # B's chunks start at 12 (A has 12 chunks of 10 elements).
        chunks = touched(r, [(0, 3), (0, 29)], ds)
        assert chunks[0] == 12
        assert chunks[[0, 35, 119]].tolist() == [12, 12 + (30 + 5) // 10, 12 + (90 + 29) // 10]

    def test_dim_mismatch(self, ds):
        r = ArrayRef("B", [AffineExpr([1])])
        with pytest.raises(ValueError, match="has 1 subscripts, array has 2 dims"):
            touched(r, [(0, 0)], ds)

    def test_out_of_bounds_subscript(self, ds):
        r = ArrayRef("A", [AffineExpr([1], 200)])
        with pytest.raises(IndexError, match=r"index \[200\] out of bounds for A\(120,\)"):
            touched(r, [(0, 0)], ds)

    def test_matrix_form_passthrough(self):
        r = ArrayRef.from_matrix("A", [[2]], [1])
        Q, q = r.matrix_form()
        assert Q.tolist() == [[2]] and q.tolist() == [1]

    def test_equality_hash(self):
        a = ArrayRef("A", [AffineExpr([1], 1)])
        b = ArrayRef("A", [AffineExpr([1], 1)])
        assert a == b and hash(a) == hash(b)
        assert a != ArrayRef("A", [AffineExpr([1], 2)])
        assert a != ArrayRef("A", [AffineExpr([1], 1)], is_write=True)
