"""Tests for the Original and Intra-processor baseline mappers."""

import numpy as np
import pytest

from repro.core.baselines import (
    IntraProcessorMapper,
    OriginalMapper,
    block_partition,
)
from repro.core.chunking import chunk_matrix_for
from repro.hierarchy.topology import three_level_hierarchy
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.arrays import DataSpace, DiskArray
from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef


@pytest.fixture
def hierarchy():
    return three_level_hierarchy(4, 2, 1, (4, 8, 16))


def transpose_nest(n=16):
    """Read-only transposed access: column-major traversal is poor."""
    ds = DataSpace([DiskArray("A", (n, n))], n)  # one chunk per row
    refs = [
        ArrayRef("A", [AffineExpr([0, 1]), AffineExpr([1, 0])]),  # A[j, i]
    ]
    nest = LoopNest("t", IterationSpace([(0, n - 1), (0, n - 1)]), refs)
    return nest, ds


class TestBlockPartition:
    def test_near_equal_blocks(self):
        parts = block_partition(np.arange(10), 3)
        sizes = [len(parts[c]) for c in range(3)]
        assert sizes == [4, 3, 3]
        assert np.concatenate([parts[c] for c in range(3)]).tolist() == list(range(10))

    def test_single_client(self):
        parts = block_partition(np.arange(5), 1)
        assert parts[0].tolist() == list(range(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            block_partition(np.arange(4), 0)


class TestOriginalMapper:
    def test_lexicographic_blocks(self, hierarchy):
        nest, ds = transpose_nest()
        m = OriginalMapper().map(nest, ds, hierarchy)
        m.validate(nest.num_iterations)
        # Client 0 owns the first quarter, in order.
        N = nest.num_iterations
        assert m.client_order[0].tolist() == list(range(N // 4))
        assert m.name == "original"

    def test_balanced(self, hierarchy):
        nest, ds = transpose_nest()
        m = OriginalMapper().map(nest, ds, hierarchy)
        assert m.imbalance() < 0.01


class TestIntraProcessorMapper:
    def test_finds_better_order_for_transpose(self, hierarchy):
        """A[j,i] traversed i-major touches a new chunk (row) every step;
        the intra mapper must interchange to fix the request count."""
        nest, ds = transpose_nest()
        chunk_matrix = chunk_matrix_for(nest, ds)[:, :1]
        original_cost = IntraProcessorMapper._transition_cost(
            np.arange(nest.num_iterations), chunk_matrix
        )
        m = IntraProcessorMapper().map(nest, ds, hierarchy)
        m.validate(nest.num_iterations)
        order = np.concatenate([m.client_order[c] for c in range(4)])
        new_cost = IntraProcessorMapper._transition_cost(order, chunk_matrix)
        assert new_cost < original_cost

    def test_identity_when_dependences_block(self, hierarchy):
        # A write plus a modular read: unknown dependence, no transform.
        ds = DataSpace([DiskArray("A", (64,))], 8)
        refs = [
            ArrayRef("A", [AffineExpr([1])], is_write=True),
            ArrayRef("A", [AffineExpr([1], 0, modulus=16)]),
        ]
        nest = LoopNest("t", IterationSpace([(0, 63)]), refs)
        m = IntraProcessorMapper().map(nest, ds, hierarchy)
        assert np.concatenate(
            [m.client_order[c] for c in range(4)]
        ).tolist() == list(range(64))

    def test_partition_always_valid(self, hierarchy):
        nest, ds = transpose_nest(8)
        m = IntraProcessorMapper(tile_candidates=(0, 2, 4)).map(nest, ds, hierarchy)
        m.validate(nest.num_iterations)

    def test_name(self):
        assert IntraProcessorMapper().name == "intra"

    def test_transition_cost_counts_per_reference(self):
        nest, ds = transpose_nest(4)
        # Two identical refs double the request count.
        refs2 = [nest.references[0], nest.references[0]]
        nest2 = LoopNest("t2", nest.space, refs2)
        m1 = chunk_matrix_for(nest, ds)[:, :1]
        m2 = np.concatenate([m1, m1], axis=1)
        ranks = np.arange(nest.num_iterations)
        c1 = IntraProcessorMapper._transition_cost(ranks, m1)
        c2 = IntraProcessorMapper._transition_cost(ranks, m2)
        assert c2 == 2 * c1
