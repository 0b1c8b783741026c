"""Tests for the affinity graph."""

import math

import numpy as np
import pytest

from repro.core.chunking import form_iteration_chunks
from repro.core import mapper as core_mapper
from repro.core.graph import build_affinity_graph
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.arrays import DataSpace, DiskArray
from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef


@pytest.fixture
def chunk_set():
    ds = DataSpace([DiskArray("A", (96,))], 8)
    refs = [
        ArrayRef("A", [AffineExpr([1])]),
        ArrayRef("A", [AffineExpr([1], 16)]),  # +2 chunks
    ]
    nest = LoopNest("t", IterationSpace([(0, 79)]), refs)
    return form_iteration_chunks(nest, ds)


class TestBuildAffinityGraph:
    def test_weights_are_tag_dots(self, chunk_set):
        g = build_affinity_graph(chunk_set)
        for i in range(g.num_nodes):
            for j in range(g.num_nodes):
                expected = chunk_set.chunks[i].tag.dot(chunk_set.chunks[j].tag)
                assert g.weights[i, j] == expected

    def test_symmetric(self, chunk_set):
        g = build_affinity_graph(chunk_set)
        assert np.array_equal(g.weights, g.weights.T)

    def test_neighbours(self, chunk_set):
        g = build_affinity_graph(chunk_set)
        # Chunk 0 (tag {0,2}) shares with chunk 2 (tag {2,4}).
        assert 2 in g.neighbours(0)
        assert 0 not in g.neighbours(0)

    def test_edges_min_weight(self, chunk_set):
        g = build_affinity_graph(chunk_set)
        for i, j, w in g.edges(min_weight=1):
            assert i < j and w >= 1


class TestForceTogether:
    def test_infinite_weight(self, chunk_set):
        g = build_affinity_graph(chunk_set)
        g.force_together(0, 1)
        assert math.isinf(g.weights[0, 1])
        assert (0, 1) in g.forced_pairs

    def test_forcing_before_or_after_the_first_read_agree(self, chunk_set):
        before = build_affinity_graph(chunk_set)
        before.force_together(3, 1)
        after = build_affinity_graph(chunk_set)
        plain = after.weights.copy()
        after.force_together(1, 3)
        assert np.array_equal(before.weights, after.weights)
        assert math.isinf(before.weights[1, 3]) and math.isinf(before.weights[3, 1])
        plain[1, 3] = plain[3, 1] = math.inf
        assert np.array_equal(after.weights, plain)

    def test_self_pair_rejected(self, chunk_set):
        g = build_affinity_graph(chunk_set)
        with pytest.raises(ValueError):
            g.force_together(2, 2)

    def test_out_of_range(self, chunk_set):
        g = build_affinity_graph(chunk_set)
        with pytest.raises(ValueError):
            g.force_together(0, 999)


class TestMapperPath:
    def test_distribution_never_builds_the_weight_matrix(self, monkeypatch):
        from repro.core.mapper import InterProcessorMapper
        from repro.workloads.paper_example import figure6_workload, figure7_hierarchy

        graphs = []

        def spy(cs):
            graphs.append(build_affinity_graph(cs))
            return graphs[-1]

        monkeypatch.setattr(core_mapper, "build_affinity_graph", spy)
        nest, ds = figure6_workload()
        InterProcessorMapper().distribute(nest, ds, figure7_hierarchy())
        assert len(graphs) == 1 and graphs[0]._weights is None
