"""Tests for the eight-application suite."""

import pytest

from repro.core.chunking import chunk_matrix_for
from repro.workloads.base import Workload, WorkloadParams
from repro.workloads.suite import SUITE, get_workload, workload_names


class TestSuiteDefinition:
    def test_eight_applications(self):
        assert len(SUITE) == 8
        assert workload_names() == [
            "hf",
            "sar",
            "contour",
            "astro",
            "e_elem",
            "apsi",
            "madbench2",
            "wupwise",
        ]

    def test_get_workload(self):
        assert get_workload("apsi").name == "apsi"
        with pytest.raises(KeyError):
            get_workload("doom")

    def test_paper_rates_recorded(self):
        for w in SUITE:
            l1, l2, l3 = w.paper_miss_rates
            assert 0 < l1 < l2 < l3 < 100  # Table 2's monotone trend

    def test_descriptions(self):
        for w in SUITE:
            assert w.description


@pytest.mark.parametrize("workload", SUITE, ids=lambda w: w.name)
class TestBuilds:
    def test_default_build(self, workload):
        params = WorkloadParams(chunk_elems=32, data_chunks=128)
        nest, ds = workload.build(params)
        assert nest.num_iterations > 0
        assert ds.num_chunks > 0

    def test_data_space_near_target(self, workload):
        # 16384 elements: large enough that the transpose apps' minimum
        # 2x2 block grid (= 16384 elements) no longer dominates.
        params = WorkloadParams(chunk_elems=32, data_chunks=512)
        _, ds = workload.build(params)
        assert 0.5 * 512 <= ds.num_chunks <= 1.5 * 512

    def test_references_in_bounds(self, workload):
        params = WorkloadParams(chunk_elems=32, data_chunks=128)
        nest, ds = workload.build(params)
        chunks = chunk_matrix_for(nest, ds)
        assert chunks.min() >= 0 and chunks.max() < ds.num_chunks

    def test_iterations_invariant_under_chunk_size(self, workload):
        """The application is fixed; only the analysis granularity varies."""
        a, _ = workload.build(WorkloadParams(chunk_elems=32, data_chunks=256))
        b, _ = workload.build(WorkloadParams(chunk_elems=64, data_chunks=128))
        # Sub-array sizes are bookkept in whole chunks, so a small
        # (few-percent) drift across chunk sizes is expected.
        assert a.num_iterations == pytest.approx(b.num_iterations, rel=0.05)

    def test_chunk_count_scales_inversely(self, workload):
        _, small = workload.build(WorkloadParams(chunk_elems=32, data_chunks=256))
        _, big = workload.build(WorkloadParams(chunk_elems=64, data_chunks=128))
        assert small.num_chunks == pytest.approx(2 * big.num_chunks, rel=0.1)


class TestWorkloadParams:
    def test_data_elems(self):
        p = WorkloadParams(chunk_elems=64, data_chunks=100)
        assert p.data_elems == 6400

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadParams(chunk_elems=0)
        with pytest.raises(ValueError):
            WorkloadParams(data_chunks=0)

    def test_empty_build_rejected(self):
        def bad(params):
            from repro.polyhedral.affine import AffineExpr
            from repro.polyhedral.arrays import DataSpace, DiskArray
            from repro.polyhedral.iterspace import IterationSpace
            from repro.polyhedral.nest import LoopNest
            from repro.polyhedral.references import ArrayRef

            ds = DataSpace([DiskArray("A", (8,))], 8)
            nest = LoopNest(
                "bad",
                IterationSpace([(0, -1 + 1)]),  # single iteration
                [ArrayRef("A", [AffineExpr([1])])],
            )
            return nest, ds

        w = Workload("bad", "x", bad, (1, 2, 3))
        nest, _ = w.build(WorkloadParams())
        assert nest.num_iterations == 1  # trivially fine
