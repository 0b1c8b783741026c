"""Tests for block-request stream generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chunking import chunk_matrix_for
from repro.core.mapping import Mapping
from repro.core.multinest import combine_nests
from repro.simulator.streams import build_client_streams, coalesce_requests
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.arrays import DataSpace, DiskArray
from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef


@pytest.fixture
def nest_and_ds():
    ds = DataSpace([DiskArray("A", (64,))], 8)
    refs = [
        ArrayRef("A", [AffineExpr([1])]),
        ArrayRef("A", [AffineExpr([1], 0, modulus=8)]),
    ]
    return LoopNest("t", IterationSpace([(0, 31)]), refs), ds


class TestCoalesceRequests:
    def test_run_length_per_reference(self):
        rows = np.array([[0, 5], [0, 5], [1, 5], [1, 6]])
        # Ref 0 transitions at row 2; ref 1 transitions at row 3.
        assert coalesce_requests(rows).tolist() == [0, 5, 1, 6]

    def test_first_iteration_requests_all(self):
        rows = np.array([[3, 4, 5]])
        assert coalesce_requests(rows).tolist() == [3, 4, 5]

    def test_interleaving_order(self):
        rows = np.array([[0, 9], [1, 8]])
        # Iteration order first, reference order within an iteration.
        assert coalesce_requests(rows).tolist() == [0, 9, 1, 8]

    def test_empty(self):
        assert len(coalesce_requests(np.empty((0, 2), dtype=np.int64))) == 0

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            coalesce_requests(np.array([1, 2]))

    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=1,
            max_size=20,
        )
    )
    def test_properties(self, rows):
        arr = np.asarray(rows, dtype=np.int64)
        out = coalesce_requests(arr)
        # First row always fully requested.
        assert out[0] == arr[0, 0]
        # Total requests = per-column transition counts + R.
        expected = arr.shape[1] + int(np.count_nonzero(arr[1:] != arr[:-1]))
        assert len(out) == expected


class TestBuildClientStreams:
    def test_original_blocked_streams(self, nest_and_ds):
        nest, ds = nest_and_ds
        mapping = Mapping("m", {0: np.arange(16), 1: np.arange(16, 32)})
        streams = build_client_streams(mapping, nest, ds)
        # Client 0: A[i] sweeps chunks 0,1 (one request each); A[i%8]
        # stays in chunk 0 (one request).  Total 3.
        assert streams[0].tolist() == [0, 0, 1]
        assert streams[1].tolist() == [2, 0, 3]

    def test_empty_client(self, nest_and_ds):
        nest, ds = nest_and_ds
        mapping = Mapping("m", {0: np.arange(32), 1: np.array([], dtype=np.int64)})
        streams = build_client_streams(mapping, nest, ds)
        assert len(streams[1]) == 0

    def test_chunk_matrix_reuse(self, nest_and_ds):
        nest, ds = nest_and_ds
        cm = chunk_matrix_for(nest, ds)
        mapping = Mapping("m", {0: np.arange(32)})
        a = build_client_streams(mapping, nest, ds)
        b = build_client_streams(mapping, nest, ds, chunk_matrix=cm)
        assert np.array_equal(a[0], b[0])

    def test_wrong_matrix_shape_rejected(self, nest_and_ds):
        nest, ds = nest_and_ds
        mapping = Mapping("m", {0: np.arange(32)})
        with pytest.raises(ValueError):
            build_client_streams(
                mapping, nest, ds, chunk_matrix=np.zeros((3, 1), dtype=np.int64)
            )


class TestMultiNestStreams:
    def test_streams_cover_both_nests(self, nest_and_ds):
        nest, ds = nest_and_ds
        other = LoopNest(
            "o",
            IterationSpace([(0, 15)]),
            [ArrayRef("A", [AffineExpr([1], 16)])],
        )
        combined, cs = combine_nests([nest, other], ds)
        N = combined.num_iterations
        mapping = Mapping("m", {0: np.arange(N)})
        streams = build_client_streams(mapping, combined, ds)
        # Sanity: requests from both nests' chunk ranges appear.
        assert {0, 1, 2, 3} <= set(streams[0].tolist())

    def test_interleaved_nest_runs(self, nest_and_ds):
        nest, ds = nest_and_ds
        other = LoopNest(
            "o",
            IterationSpace([(0, 15)]),
            [ArrayRef("A", [AffineExpr([1], 16)])],
        )
        combined, _ = combine_nests([nest, other], ds)
        # Alternate one iteration from each nest.
        order = np.array([0, 32, 1, 33])
        mapping = Mapping("m", {0: order})
        streams = build_client_streams(mapping, combined, ds)
        # Each nest-run restarts coalescing, so every segment requests.
        assert len(streams[0]) == 2 + 1 + 2 + 1

    def test_matrix_argument_rejected_for_combined(self, nest_and_ds):
        nest, ds = nest_and_ds
        combined, _ = combine_nests([nest], ds)
        mapping = Mapping("m", {0: np.arange(32)})
        with pytest.raises(ValueError):
            build_client_streams(
                mapping, combined, ds, chunk_matrix=np.zeros((32, 2))
            )
