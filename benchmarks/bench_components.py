"""Microbenchmarks of the library's hot components.

These use pytest-benchmark's statistics (multiple rounds) to track the
performance of the pipeline stages: tagging/chunk formation, affinity
graph construction, hierarchical clustering, Fig. 15 scheduling, stream
generation and the simulation engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.chunking import form_iteration_chunks
from repro.core.clustering import distribute_iterations
from repro.core.graph import build_affinity_graph
from repro.core.mapper import InterProcessorMapper
from repro.core.scheduling import schedule_clients
from repro.simulator.engine import simulate
from repro.simulator.streams import build_client_streams
from repro.storage.filesystem import ParallelFileSystem
from repro.util.rng import make_rng
from repro.workloads.base import WorkloadParams
from repro.workloads.suite import get_workload


@pytest.fixture(scope="module")
def setup(bench_config):
    w = get_workload("hf")
    params = WorkloadParams(
        chunk_elems=bench_config.chunk_elems, data_chunks=bench_config.data_chunks
    )
    nest, ds = w.build(params)
    hierarchy = bench_config.build_hierarchy()
    chunk_set = form_iteration_chunks(nest, ds)
    distribution = distribute_iterations(chunk_set, hierarchy, 0.10)
    mapping = InterProcessorMapper().map(nest, ds, hierarchy, make_rng(1))
    streams = build_client_streams(mapping, nest, ds)
    return {
        "config": bench_config,
        "nest": nest,
        "ds": ds,
        "hierarchy": hierarchy,
        "chunk_set": chunk_set,
        "distribution": distribution,
        "mapping": mapping,
        "streams": streams,
    }


def test_chunk_formation(benchmark, setup):
    result = benchmark(form_iteration_chunks, setup["nest"], setup["ds"])
    assert result.num_chunks > 0


def test_affinity_graph(benchmark, setup):
    g = benchmark(build_affinity_graph, setup["chunk_set"])
    assert g.num_nodes == setup["chunk_set"].num_chunks


def test_hierarchical_distribution(benchmark, setup):
    dist = benchmark(
        distribute_iterations, setup["chunk_set"], setup["hierarchy"], 0.10
    )
    assert dist.num_clients == setup["hierarchy"].num_clients


def test_scheduling(benchmark, setup):
    sched = benchmark(
        schedule_clients, setup["distribution"], setup["hierarchy"], 0.5, 0.5
    )
    assert len(sched) == setup["hierarchy"].num_clients


def test_stream_generation(benchmark, setup):
    streams = benchmark(
        build_client_streams, setup["mapping"], setup["nest"], setup["ds"]
    )
    assert len(streams) == setup["hierarchy"].num_clients


def test_simulation_engine(benchmark, setup):
    cfg = setup["config"]

    def run():
        fs = ParallelFileSystem(
            cfg.num_storage_nodes, cfg.chunk_elems * 1024, cfg.disk
        )
        return simulate(
            setup["streams"],
            setup["hierarchy"],
            fs,
            latency=cfg.latency,
            iterations_per_client=setup["mapping"].iteration_counts(),
        )

    res = benchmark(run)
    assert res.total_accesses() > 0


def test_simulation_engine_fast(benchmark, setup):
    """The vectorized engine on the same inputs as
    ``test_simulation_engine`` — the two medians are the speedup the
    engine gate (``bench_engine.py`` / ``gate.py``) pins."""
    from repro.simulator.fast import simulate as fast_simulate

    cfg = setup["config"]

    def run():
        fs = ParallelFileSystem(
            cfg.num_storage_nodes, cfg.chunk_elems * 1024, cfg.disk
        )
        return fast_simulate(
            setup["streams"],
            setup["hierarchy"],
            fs,
            latency=cfg.latency,
            iterations_per_client=setup["mapping"].iteration_counts(),
        )

    res = benchmark(run)
    assert res.total_accesses() > 0


def test_simulation_engine_null_recorder(benchmark, setup):
    """Tracing hook disabled: must not measurably slow the engine down
    compared to ``test_simulation_engine`` (the recorder is normalized
    away before the hot loop)."""
    from repro.trace.recorder import NullRecorder

    cfg = setup["config"]
    recorder = NullRecorder()

    def run():
        fs = ParallelFileSystem(
            cfg.num_storage_nodes, cfg.chunk_elems * 1024, cfg.disk
        )
        return simulate(
            setup["streams"],
            setup["hierarchy"],
            fs,
            latency=cfg.latency,
            iterations_per_client=setup["mapping"].iteration_counts(),
            recorder=recorder,
        )

    res = benchmark(run)
    assert res.total_accesses() > 0


def test_simulation_engine_live_registry(benchmark, setup):
    """Telemetry enabled: metrics bridge only at the end of ``simulate``,
    so a live registry must cost about the same as the null registry
    (compare against ``test_simulation_engine``, which runs with
    telemetry disabled)."""
    from repro.telemetry import MetricsRegistry, use_registry

    cfg = setup["config"]

    def run():
        fs = ParallelFileSystem(
            cfg.num_storage_nodes, cfg.chunk_elems * 1024, cfg.disk
        )
        with use_registry(MetricsRegistry()):
            return simulate(
                setup["streams"],
                setup["hierarchy"],
                fs,
                latency=cfg.latency,
                iterations_per_client=setup["mapping"].iteration_counts(),
            )

    res = benchmark(run)
    assert res.total_accesses() > 0


def test_full_inter_mapping(benchmark, setup):
    mapper = InterProcessorMapper(schedule=True)

    def run():
        return mapper.map(
            setup["nest"], setup["ds"], setup["hierarchy"], make_rng(1)
        )

    mapping = benchmark(run)
    mapping.validate(setup["nest"].num_iterations)
