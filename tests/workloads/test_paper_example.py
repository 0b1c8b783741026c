"""Ground truth: the paper's §4.4 worked example (Figures 6-9, 16-17).

These tests pin the reproduction to the paper's own numbers: the Fig. 8
tags and edge weights, the Fig. 9 two-level clustering, and the Fig. 17
final schedule structure.
"""

import numpy as np
import pytest

from repro.core.chunking import form_iteration_chunks
from repro.core.clustering import distribute_iterations
from repro.core.graph import build_affinity_graph
from repro.core.mapper import InterProcessorMapper
from repro.core.scheduling import schedule_clients
from repro.workloads.paper_example import (
    FIGURE8_TAGS,
    figure6_workload,
    figure7_hierarchy,
)


@pytest.fixture(scope="module")
def example():
    nest, ds = figure6_workload(d=16)
    chunk_set = form_iteration_chunks(nest, ds)
    return nest, ds, chunk_set


class TestFigure6:
    def test_twelve_chunks(self, example):
        _, ds, _ = example
        assert ds.num_chunks == 12

    def test_iteration_count(self, example):
        nest, _, _ = example
        d = 16
        assert nest.num_iterations == 12 * d - 4 * d  # i = 0 .. m-4d-1

    def test_four_references(self, example):
        nest, _, _ = example
        assert len(nest.references) == 4


class TestFigure8Tags:
    def test_eight_iteration_chunks(self, example):
        _, _, cs = example
        assert cs.num_chunks == 8

    def test_exact_tags_in_paper_order(self, example):
        _, _, cs = example
        for k, chunk in enumerate(cs.chunks, start=1):
            assert chunk.tag.to_bitstring() == FIGURE8_TAGS[k], f"gamma{k}"

    def test_equal_chunk_sizes(self, example):
        _, _, cs = example
        assert {c.size for c in cs.chunks} == {16}

    def test_edge_weights(self, example):
        """Fig. 8: weight-3 edges (1,3),(3,5),(5,7) etc., weight-2 (1,5),(3,7)."""
        _, _, cs = example
        g = build_affinity_graph(cs)
        # 1-based pairs from the figure (odd component).
        assert g.weights[0, 2] == 3
        assert g.weights[2, 4] == 3
        assert g.weights[4, 6] == 3
        assert g.weights[0, 4] == 2
        assert g.weights[2, 6] == 2
        # Even component mirrors it.
        assert g.weights[1, 3] == 3
        assert g.weights[5, 7] == 3
        # Odd-even pairs share only chunk 0 (weight 1).
        assert g.weights[0, 1] == 1

    def test_graph_is_complete_via_chunk0(self, example):
        _, _, cs = example
        g = build_affinity_graph(cs)
        assert g.is_complete()


class TestFigure9Clustering:
    def test_parity_split_across_io_nodes(self, example):
        """Fig. 9: odd chunks on one I/O node's clients, even on the other."""
        _, _, cs = example
        h = figure7_hierarchy()
        dist = distribute_iterations(cs, h, 0.10)
        dist.validate_partition()
        # Clients 0,1 share IO0; clients 2,3 share IO1.
        io0 = {m % 2 for c in (0, 1) for m in dist.assignment[c]}
        io1 = {m % 2 for c in (2, 3) for m in dist.assignment[c]}
        assert len(io0) == 1 and len(io1) == 1
        assert io0 != io1

    def test_each_client_two_chunks(self, example):
        _, _, cs = example
        h = figure7_hierarchy()
        dist = distribute_iterations(cs, h, 0.10)
        assert all(len(ids) == 2 for ids in dist.assignment.values())

    def test_paired_chunks_share_three_chunks(self, example):
        """Within a client the two chunks are distance-2 neighbours."""
        _, _, cs = example
        h = figure7_hierarchy()
        dist = distribute_iterations(cs, h, 0.10)
        for ids in dist.assignment.values():
            a, b = (cs.chunks[m].tag for m in ids)
            assert a.dot(b) >= 3


class TestFigure17Schedule:
    def test_schedule_orders_by_affinity(self, example):
        _, _, cs = example
        h = figure7_hierarchy()
        dist = distribute_iterations(cs, h, 0.10)
        sched = schedule_clients(dist, h, alpha=0.5, beta=0.5)
        # Every client gets both its chunks, each exactly once.
        for c in range(4):
            assert sorted(sched[c]) == sorted(dist.assignment[c])

    def test_first_chunk_minimises_popcount(self, example):
        """Fig. 15: the group's first client starts with the fewest-1s tag."""
        _, _, cs = example
        h = figure7_hierarchy()
        dist = distribute_iterations(cs, h, 0.10)
        sched = schedule_clients(dist, h)
        for first_client in (0, 2):  # first client of each I/O group
            first = sched[first_client][0]
            pops = [
                len(dist.pool[m].tag.chunks) for m in dist.assignment[first_client]
            ]
            assert len(dist.pool[first].tag.chunks) == min(pops)


class TestEndToEndMapping:
    def test_mapping_covers_all_iterations(self, example):
        nest, ds, _ = example
        h = figure7_hierarchy()
        mapping = InterProcessorMapper(schedule=True).map(nest, ds, h)
        mapping.validate(nest.num_iterations)
        counts = mapping.iteration_counts()
        assert all(v == nest.num_iterations // 4 for v in counts.values())

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            figure6_workload(d=1)
