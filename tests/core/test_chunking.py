"""Tests for iteration tagging and chunk formation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chunking import (
    IterationChunk,
    IterationChunkSet,
    _row_keys,
    form_iteration_chunks,
)
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.arrays import DataSpace, DiskArray
from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef
from repro.util.bitset import Tag


def simple_nest(n=64, d=8, refs=None):
    ds = DataSpace([DiskArray("A", (max(n, 128),))], d)
    refs = refs or [ArrayRef("A", [AffineExpr([1])])]
    return LoopNest("t", IterationSpace([(0, n - 1)]), refs), ds


class TestIterationChunk:
    def test_size(self):
        c = IterationChunk(Tag([0], 4), np.arange(5))
        assert c.size == 5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IterationChunk(Tag([0], 4), np.array([]))

    def test_split(self):
        c = IterationChunk(Tag([0], 4), np.arange(10))
        a, b = c.split(3)
        assert a.size == 3 and b.size == 7
        assert a.tag == b.tag == c.tag
        assert np.array_equal(np.concatenate([a.iterations, b.iterations]), c.iterations)

    def test_split_halves_share_ids_and_a_built_tag(self):
        c = IterationChunk.from_ids((1, 3), 4, np.arange(10))
        a, b = c.split(4)
        assert a.chunk_ids is b.chunk_ids is c.chunk_ids
        assert a.nbits == b.nbits == 4
        tag = c.tag
        x, y = c.split(2)
        assert x.tag is tag and y.tag is tag

    def test_from_ids_builds_the_tag_on_first_use(self):
        c = IterationChunk.from_ids((0, 2), 4, np.arange(3))
        assert c._tag is None
        assert c.tag == Tag([0, 2], 4)
        assert c.tag is c.tag
        assert repr(c) == "IterationChunk(size=3, chunks=[0, 2])"

    def test_eager_constructor_keeps_sorted_ids(self):
        c = IterationChunk(Tag({3, 0, 2}, 4), np.arange(2))
        assert c.chunk_ids == (0, 2, 3) and c.nbits == 4

    def test_split_bounds(self):
        c = IterationChunk(Tag([0], 4), np.arange(4))
        with pytest.raises(ValueError):
            c.split(0)
        with pytest.raises(ValueError):
            c.split(4)


class TestFormIterationChunks:
    def test_sequential_sweep_one_chunk_per_block(self):
        nest, ds = simple_nest(n=64, d=8)
        cs = form_iteration_chunks(nest, ds)
        assert cs.num_chunks == 8
        for k, chunk in enumerate(cs.chunks):
            assert chunk.tag.chunks == frozenset({k})
            assert chunk.size == 8

    def test_partition_validates(self):
        nest, ds = simple_nest()
        cs = form_iteration_chunks(nest, ds)
        cs.validate_partition()
        assert cs.total_iterations == nest.num_iterations

    def test_duplicate_chunk_in_row_canonicalised(self):
        # Two references touching the SAME chunk must not differ from one.
        refs = [
            ArrayRef("A", [AffineExpr([1])]),
            ArrayRef("A", [AffineExpr([1])]),  # identical
        ]
        nest, ds = simple_nest(n=16, d=8, refs=refs)
        cs = form_iteration_chunks(nest, ds)
        assert cs.num_chunks == 2
        assert all(len(c.tag.chunks) == 1 for c in cs.chunks)

    def test_set_semantics_across_orderings(self):
        # Rows [1,1,2] and [1,2,2] both mean {1,2}: same tag.
        ds = DataSpace([DiskArray("A", (32,))], 8)
        refs = [
            ArrayRef("A", [AffineExpr([0], 8)]),   # always chunk 1
            ArrayRef("A", [AffineExpr([1])]),      # chunk i//8
            ArrayRef("A", [AffineExpr([1], 0, modulus=16)]),  # chunk (i%16)//8
        ]
        nest = LoopNest("t", IterationSpace([(8, 23)]), refs)
        cs = form_iteration_chunks(nest, ds)
        # i in [8,16): rows (1, 1, (i%16)//8=1) -> {1}; i in [16,24): (1, 2, 0) -> {0,1,2}
        tags = {c.tag.chunks for c in cs.chunks}
        assert frozenset({1}) in tags
        assert frozenset({0, 1, 2}) in tags
        assert cs.num_chunks == 2

    def test_lazy_tags_equal_eager_tags(self):
        refs = [ArrayRef("A", [AffineExpr([1])]), ArrayRef("A", [AffineExpr([1], 16)])]
        nest, ds = simple_nest(n=64, d=8, refs=refs)
        cs = form_iteration_chunks(nest, ds)
        for chunk in cs.chunks:
            assert chunk._tag is None
            eager = Tag(chunk.chunk_ids, ds.num_chunks)
            assert chunk.tag == eager and hash(chunk.tag) == hash(eager)
            assert list(chunk.chunk_ids) == sorted(eager.chunks)

    def test_chunks_ordered_by_first_appearance(self):
        nest, ds = simple_nest(n=32, d=8)
        cs = form_iteration_chunks(nest, ds)
        firsts = [c.iterations[0] for c in cs.chunks]
        assert firsts == sorted(firsts)

    def test_incidence_matches_tags(self):
        # Two references, so each row is a multi-chunk tag.
        refs = [ArrayRef("A", [AffineExpr([1])]), ArrayRef("A", [AffineExpr([1], 16)])]
        nest, ds = simple_nest(n=64, d=8, refs=refs)
        cs = form_iteration_chunks(nest, ds)
        expected = np.stack([c.tag.to_vector() for c in cs.chunks]).astype(np.float64)
        assert cs.incidence.dtype == np.float64
        assert np.array_equal(cs.incidence, expected)
        # Built from the tags when the caller does not supply it.
        rebuilt = IterationChunkSet(nest, ds, cs.chunks)
        assert np.array_equal(rebuilt.incidence, expected)
        with pytest.raises(ValueError):
            IterationChunkSet(nest, ds, cs.chunks, incidence=expected[1:])

    def test_2d_nest(self):
        ds = DataSpace([DiskArray("A", (8, 16))], 16)
        nest = LoopNest(
            "t",
            IterationSpace([(0, 7), (0, 15)]),
            [ArrayRef("A", [AffineExpr([1, 0]), AffineExpr([0, 1])])],
        )
        cs = form_iteration_chunks(nest, ds)
        assert cs.num_chunks == 8  # one tag per row
        cs.validate_partition()

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 6),  # chunk size d
        st.lists(st.integers(0, 3), min_size=1, max_size=3),  # strides
    )
    def test_partition_property(self, d, strides):
        P = 16 * d
        ds = DataSpace([DiskArray("A", (P + 4 * d,))], d)
        refs = [ArrayRef("A", [AffineExpr([1], s * d)]) for s in strides]
        nest = LoopNest("t", IterationSpace([(0, P - 1)]), refs)
        cs = form_iteration_chunks(nest, ds)
        cs.validate_partition()
        # Tags really differ between chunks.
        tags = [c.tag for c in cs.chunks]
        assert len(set(tags)) == len(tags)


class TestRowKeys:
    @pytest.mark.parametrize(
        "rows",
        [
            # Keys so far span 2⁶²+1 values, the next column 4: they re-rank
            # first, or (2⁶², 0) would wrap onto (0, 0).
            [[0, 0], [2**62, 0], [0, 3], [2**62, 3], [2**62, 1]],
            # A column spanning all of int64 re-ranks itself.
            [[-(2**63), 0], [2**63 - 1, 0], [0, 1], [-(2**63), 1], [5, 0]],
        ],
    )
    def test_exact_and_lexicographic_at_the_int64_limits(self, rows):
        rows = np.array(rows, dtype=np.int64)
        keys = _row_keys(rows)
        assert keys.dtype == np.int64
        assert len(np.unique(keys)) == len(np.unique(rows, axis=0))
        assert np.array_equal(
            np.argsort(keys, kind="stable"), np.lexsort(rows.T[::-1])
        )

    def test_empty_and_single_column(self):
        assert len(_row_keys(np.empty((0, 3), dtype=np.int64))) == 0
        keys = _row_keys(np.array([[7], [-1], [7]]))
        assert keys.tolist() == [8, 0, 8]
