"""Tests for workload pattern generators."""

import numpy as np
import pytest

from repro.core.chunking import chunk_matrix_for
from repro.workloads.generators import (
    STRIDE_UNIT,
    blocked_transpose,
    modular_gather,
    planes_2d,
    stencil_2d,
    strided_1d,
)


class TestStrided1d:
    def test_basic_shape(self):
        nest, ds = strided_1d("t", num_chunks=32, chunk_elems=16, stride_chunks=(0, 2))
        assert ds.num_chunks == 32
        assert nest.depth == 1

    def test_sweeps_add_outer_loop(self):
        nest, _ = strided_1d(
            "t", 32, 16, stride_chunks=(0,), sweeps=3, rotate_chunks=4
        )
        assert nest.depth == 2
        assert nest.space.shape[0] == 3

    def test_negative_strides_shift_bounds(self):
        nest, ds = strided_1d("t", 32, 16, stride_chunks=(0, -2))
        lo = nest.space.lowers[-1]
        assert lo == 2 * STRIDE_UNIT
        # All touched indices stay in bounds.
        chunk_matrix_for(nest, ds)

    def test_rotation_ref_only_with_sweeps(self):
        n1, _ = strided_1d("t", 32, 16, stride_chunks=(0,), rotate_chunks=4)
        n2, _ = strided_1d(
            "t", 32, 16, stride_chunks=(0,), rotate_chunks=4, sweeps=2
        )
        assert len(n2.references) == len(n1.references) + 1

    def test_second_array(self):
        nest, ds = strided_1d(
            "t", 32, 16, stride_chunks=(0,), second_array_chunks=4
        )
        assert "B" in [a.name for a in ds.arrays]
        assert "B" in nest.arrays_referenced

    def test_write_flag(self):
        nest, _ = strided_1d("t", 32, 16, stride_chunks=(0, 2), write_first=True)
        assert nest.references[0].is_write
        nest, _ = strided_1d("t", 32, 16, stride_chunks=(0, 2), write_first=False)
        assert not any(r.is_write for r in nest.references)

    def test_too_small_array_rejected(self):
        with pytest.raises(ValueError):
            strided_1d("t", 2, 16, stride_chunks=(0, 50))

    def test_all_chunks_in_bounds(self):
        nest, ds = strided_1d(
            "t", 32, 16, stride_chunks=(0, 2, -5), sweeps=2, rotate_chunks=16,
            mod_window_chunks=1, second_array_chunks=2,
        )
        chunks = chunk_matrix_for(nest, ds)
        assert chunks.min() >= 0 and chunks.max() < ds.num_chunks


class TestStencil2d:
    def test_interior_bounds_without_sweeps(self):
        nest, ds = stencil_2d("t", rows=16, cols_chunks=2, chunk_elems=16)
        assert nest.depth == 2
        assert nest.space.lowers[0] == 1  # interior rows only

    def test_periodic_with_sweeps(self):
        nest, ds = stencil_2d(
            "t", rows=16, cols_chunks=2, chunk_elems=16, sweeps=2, row_rotate=4
        )
        assert nest.depth == 3
        chunks = chunk_matrix_for(nest, ds)
        assert chunks.min() >= 0 and chunks.max() < ds.num_chunks

    def test_write_center_flag(self):
        nest, _ = stencil_2d("t", 8, 2, 16, writes_center=True)
        assert any(r.is_write for r in nest.references)
        nest, _ = stencil_2d("t", 8, 2, 16, writes_center=False)
        assert not any(r.is_write for r in nest.references)


class TestBlockedTranspose:
    def test_four_deep(self):
        nest, ds = blocked_transpose("t", n_chunks_per_dim=2, chunk_elems=16)
        assert nest.depth == 4
        n = 2 * STRIDE_UNIT
        assert ds.arrays[0].shape == (n, n)

    def test_iterations_cover_matrix(self):
        nest, _ = blocked_transpose("t", 2, 16)
        assert nest.num_iterations == (2 * STRIDE_UNIT) ** 2

    def test_transposed_ref_swaps_blocks(self):
        nest, ds = blocked_transpose("t", 2, 16)
        normal, transposed = nest.references[:2]
        it = np.array([[1, 3, 0, 5]])  # i1=1, i2=3, j1=0, j2=5
        u = STRIDE_UNIT
        assert normal.map.evaluate(it).tolist() == [[u + 3, 5]]
        assert transposed.map.evaluate(it).tolist() == [[3, u + 5]]

    def test_rotate_and_revisit_refs(self):
        nest, ds = blocked_transpose("t", 2, 16, rotate_cols=True, revisit_rows=2)
        assert len(nest.references) == 4
        assert chunk_matrix_for(nest, ds).max() < ds.num_chunks

    def test_chunk_count_scales_with_chunk_size(self):
        _, ds16 = blocked_transpose("t", 2, 16)
        _, ds32 = blocked_transpose("t", 2, 32)
        assert ds16.num_chunks == 2 * ds32.num_chunks


class TestModularGather:
    def test_blocked_nest(self):
        nest, ds = modular_gather("t", num_chunks=32, chunk_elems=16)
        assert nest.depth == 2
        assert nest.num_iterations == 32 * 16

    def test_sweeps(self):
        nest, _ = modular_gather("t", 32, 16, sweeps=2, rotate_chunks=4)
        assert nest.depth == 3

    def test_revisit_ref(self):
        n1, _ = modular_gather("t", 32, 16)
        n2, _ = modular_gather("t", 32, 16, revisit_chunks=4)
        assert len(n2.references) == len(n1.references) + 1

    def test_bounds(self):
        nest, ds = modular_gather(
            "t", 32, 16, factor=5, sweeps=2, rotate_chunks=10, revisit_chunks=3
        )
        chunks = chunk_matrix_for(nest, ds)
        assert chunks.min() >= 0 and chunks.max() < ds.num_chunks


class TestPlanes2d:
    def test_refs_and_bounds(self):
        nest, ds = planes_2d(
            "t", rows=16, cols_chunks=2, chunk_elems=16,
            sweeps=2, revisit_cols_chunks=1,
        )
        assert nest.depth == 3
        assert len(nest.references) == 5
        chunks = chunk_matrix_for(nest, ds)
        assert chunks.min() >= 0 and chunks.max() < ds.num_chunks

    def test_shift_bounds_validated(self):
        with pytest.raises(ValueError):
            planes_2d("t", rows=4, cols_chunks=1, chunk_elems=16, col_shift_chunks=2)
