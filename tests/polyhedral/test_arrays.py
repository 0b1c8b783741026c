"""Tests for disk arrays and the chunked data space."""

import numpy as np
import pytest

from repro.core.chunking import chunk_matrix_for
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.arrays import DataSpace, DiskArray
from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef


def chunk_ids(ds, name, bounds):
    """Chunk ids of ``name[i0, i1, …]`` over the box ``bounds``, row-major."""
    depth = len(bounds)
    ref = ArrayRef.identity(name, depth)
    return chunk_matrix_for(LoopNest("t", IterationSpace(bounds), [ref]), ds)[:, 0]


def offsets(arr, bounds):
    """Row-major element offsets of ``arr[i0, i1, …]`` over the box ``bounds``."""
    return chunk_ids(DataSpace([arr], 1), arr.name, bounds)


class TestDiskArray:
    def test_size_and_bytes(self):
        a = DiskArray("A", (4, 8), element_size=8)
        assert a.size == 32
        assert a.ndim == 2

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            DiskArray("A", ())
        with pytest.raises(ValueError):
            DiskArray("A", (0,))
        with pytest.raises(ValueError):
            DiskArray("", (4,))

    def test_linearize_row_major(self):
        a = DiskArray("A", (3, 4))
        assert offsets(a, [(0, 2), (0, 3)]).tolist() == list(range(12))

    def test_linearize_single(self):
        a = DiskArray("A", (3, 4))
        assert offsets(a, [(1, 1), (2, 2)]).tolist() == [6]

    def test_linearize_bounds(self):
        a = DiskArray("A", (3, 4))
        with pytest.raises(IndexError, match=r"index \[3, 0\] out of bounds for A\(3, 4\)"):
            offsets(a, [(0, 3), (0, 3)])
        with pytest.raises(IndexError, match=r"index \[0, -1\] out of bounds"):
            offsets(a, [(0, 2), (-1, 3)])

    def test_linearize_dim_mismatch(self):
        ds = DataSpace([DiskArray("A", (3,))], 1)
        ref = ArrayRef.identity("A", 2)
        nest = LoopNest("t", IterationSpace([(0, 0), (0, 0)]), [ref])
        with pytest.raises(ValueError):
            chunk_matrix_for(nest, ds)


class TestDataSpace:
    def test_chunk_numbering_across_arrays(self):
        # Fig. 4: arrays are chunked separately, labels run consecutively.
        ds = DataSpace([DiskArray("A", (100,)), DiskArray("B", (50,))], 10)
        assert ds.num_chunks == 15
        assert ds.chunk_base("A") == 0
        assert ds.chunk_base("B") == 10
        assert chunk_ids(ds, "B", [(0, 49)]).tolist() == np.repeat(np.arange(10, 15), 10).tolist()

    def test_no_chunk_spans_arrays(self):
        # A has 95 elements -> 10 chunks (last partial); B starts at 10.
        ds = DataSpace([DiskArray("A", (95,)), DiskArray("B", (10,))], 10)
        assert ds.chunk_base("B") == 10
        assert ds.num_chunks == 11

    def test_chunk_of_vectorised(self):
        ds = DataSpace([DiskArray("A", (100,))], 10)
        assert chunk_ids(ds, "A", [(0, 99)])[[0, 9, 10, 99]].tolist() == [0, 0, 1, 9]

    def test_chunk_of_2d_array(self):
        ds = DataSpace([DiskArray("A", (4, 10))], 10)
        assert chunk_ids(ds, "A", [(2, 2), (5, 5)]).tolist() == [2]

    def test_unknown_array(self):
        ds = DataSpace([DiskArray("A", (10,))], 5)
        with pytest.raises(KeyError):
            ds.array("Z")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            DataSpace([DiskArray("A", (10,)), DiskArray("A", (10,))], 5)

    def test_needs_arrays(self):
        with pytest.raises(ValueError):
            DataSpace([], 5)

    def test_paper_figure6_chunking(self):
        # Fig. 6: A[m] with m = 12*d divided into 12 chunks of size d.
        d = 16
        ds = DataSpace([DiskArray("A", (12 * d,))], d)
        assert ds.num_chunks == 12
