"""Tests for multi-nest mapping (§5.4)."""

import numpy as np
import pytest

from repro.core.chunking import form_iteration_chunks
from repro.core.clustering import distribute_iterations
from repro.core.mapper import InterProcessorMapper
from repro.core.multinest import CombinedNest, combine_nests
from repro.hierarchy.topology import three_level_hierarchy
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.arrays import DataSpace, DiskArray
from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef


@pytest.fixture
def two_nests():
    ds = DataSpace([DiskArray("A", (128,))], 8)
    n1 = LoopNest(
        "first",
        IterationSpace([(0, 63)]),
        [ArrayRef("A", [AffineExpr([1])])],
    )
    n2 = LoopNest(
        "second",
        IterationSpace([(0, 63)]),
        [ArrayRef("A", [AffineExpr([1], 64)])],
    )
    return [n1, n2], ds


class TestCombinedNest:
    def test_offsets(self, two_nests):
        nests, _ = two_nests
        c = CombinedNest(nests)
        assert c.num_iterations == 128
        assert c.offsets == (0, 64, 128)
        assert c.name == "first+second"

    def test_locate(self, two_nests):
        nests, _ = two_nests
        c = CombinedNest(nests)
        nest_ids, local = c.locate(np.array([0, 63, 64, 127]))
        assert nest_ids.tolist() == [0, 0, 1, 1]
        assert local.tolist() == [0, 63, 0, 63]

    def test_locate_out_of_range(self, two_nests):
        nests, _ = two_nests
        c = CombinedNest(nests)
        with pytest.raises(ValueError):
            c.locate(np.array([128]))

    def test_needs_nests(self):
        with pytest.raises(ValueError):
            CombinedNest([])


class TestCombineNests:
    def test_chunks_cover_both_nests(self, two_nests):
        nests, ds = two_nests
        combined, cs = combine_nests(nests, ds)
        assert cs.total_iterations == 128
        ranks = np.concatenate([c.iterations for c in cs.chunks])
        assert sorted(ranks.tolist()) == list(range(128))

    def test_incidence_stacks_both_nests(self, two_nests):
        nests, ds = two_nests
        _, cs = combine_nests(nests, ds)
        expected = np.stack([c.tag.to_vector() for c in cs.chunks])
        assert np.array_equal(cs.incidence, expected)

    def test_chunks_keep_their_tags(self, two_nests):
        nests, ds = two_nests
        combined, cs = combine_nests(nests, ds)
        subs = [form_iteration_chunks(n, ds) for n in nests]
        expected = [
            (c.chunk_ids, c.tag, c.iterations + offset)
            for sub, offset in zip(subs, combined.offsets)
            for c in sub.chunks
        ]
        assert len(cs.chunks) == len(expected)
        for chunk, (ids, tag, ranks) in zip(cs.chunks, expected):
            assert chunk.chunk_ids == ids
            assert chunk.nbits == ds.num_chunks
            assert chunk.tag == tag
            assert np.array_equal(chunk.iterations, ranks)

    def test_same_tag_chunks_not_premerged(self, two_nests):
        nests, ds = two_nests
        # Make both nests touch the same chunks.
        same = LoopNest(
            "same",
            IterationSpace([(0, 63)]),
            [ArrayRef("A", [AffineExpr([1])])],
        )
        combined, cs = combine_nests([nests[0], same], ds)
        tags = [c.tag for c in cs.chunks]
        assert len(tags) == 2 * len(set(tags))  # each tag appears twice

    def test_distribution_and_mapping(self, two_nests):
        nests, ds = two_nests
        combined, cs = combine_nests(nests, ds)
        h = three_level_hierarchy(4, 2, 1, (4, 4, 4))
        dist = distribute_iterations(cs, h, 0.10)
        mapping = InterProcessorMapper().map_distribution(dist, h)
        mapping.validate(combined.num_iterations)
        # Inter-nest reuse: chunks of both nests touching the same data
        # chunk should co-locate.  Build per-client data footprints.
        counts = mapping.iteration_counts()
        assert sum(counts.values()) == 128
