"""End-to-end experiment driver: (workload, config, version) → result.

The three versions of §5.1 plus the §5.4 scheduling enhancement:

* ``original``     — lexicographic blocked assignment;
* ``intra``        — locality-transformed (permutation+tiling) blocked;
* ``inter``        — Fig. 5 distribution, random chunk order;
* ``inter+sched``  — Fig. 5 distribution + Fig. 15 scheduling.

An experiment runs in two halves.  :func:`prepare_mapping` builds the
workload and maps it — the expensive stage, and a pure function of the
task's :class:`~repro.exec.keys.MappingKey` (paper §4: the mapping is
computed once, at compile time, whatever the caching policy).
:func:`prepare_cell` then builds one cell's fresh hierarchy, file
system and streams, and :func:`simulate_prepared` simulates it.
:func:`run_cells` maps once and simulates every cell of a group that
shares a mapping; :func:`run_experiment` is the one-cell case.
:func:`prepare_experiment` stops before simulating, so the trace
subsystem can capture its output once and re-simulate it many times
(:mod:`repro.trace.replay`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.core.baselines import IntraProcessorMapper, OriginalMapper
from repro.core.chunking import chunk_matrix_for
from repro.core.mapper import InterProcessorMapper
from repro.core.mapping import Mapping
from repro.hierarchy.topology import CacheHierarchy
from repro.polyhedral.arrays import DataSpace
from repro.polyhedral.nest import LoopNest
from repro.simulator.engines import resolve_engine
from repro.simulator.metrics import ExperimentResult
from repro.simulator.streams import (
    build_client_streams,
    build_client_streams_with_writes,
)
from repro.storage.filesystem import ParallelFileSystem
from repro.telemetry import get_registry, phase
from repro.util.rng import derive_seed, make_rng
from repro.workloads.base import Workload, WorkloadParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import SystemConfig
    from repro.trace.recorder import TraceRecorder

__all__ = [
    "VERSIONS",
    "make_mapper",
    "prepare_mapping",
    "prepare_cell",
    "prepare_experiment",
    "simulate_prepared",
    "run_cells",
    "run_experiment",
    "PreparedMapping",
    "PreparedExperiment",
]

VERSIONS = ("original", "intra", "inter", "inter+sched")


def make_mapper(version: str, config: "SystemConfig"):
    """Instantiate the mapper for a version name."""
    if version == "original":
        return OriginalMapper()
    if version == "intra":
        return IntraProcessorMapper()
    if version == "inter":
        return InterProcessorMapper(
            balance_threshold=config.balance_threshold, schedule=False
        )
    if version == "inter+sched":
        return InterProcessorMapper(
            balance_threshold=config.balance_threshold,
            schedule=True,
            alpha=config.alpha,
            beta=config.beta,
        )
    raise ValueError(f"unknown version {version!r}; choose from {VERSIONS}")


@dataclass
class PreparedMapping:
    """One task's mapping stage: the built nest, its chunk matrix, the mapping.

    A pure function of the task's :class:`~repro.exec.keys.MappingKey`:
    cache capacities, policies, write-back, prefetch and the seed do not
    enter it, so every config sharing that key can simulate from one
    prepared mapping (each cell on its own fresh hierarchy).
    """

    workload: str
    version: str
    nest: LoopNest
    data_space: DataSpace
    #: (N, R) data chunk per iteration and reference; read by both the
    #: mapper and stream generation.
    chunk_matrix: np.ndarray
    mapping: Mapping


@dataclass
class PreparedExperiment:
    """Everything the simulator needs, with the mapping stage done."""

    workload: str
    version: str
    streams: dict[int, np.ndarray]
    write_masks: dict[int, np.ndarray] | None
    iterations_per_client: dict[int, int]
    num_data_chunks: int
    mapping: Mapping
    hierarchy: CacheHierarchy
    filesystem: ParallelFileSystem


def prepare_mapping(
    workload: Workload,
    config: "SystemConfig",
    version: str,
) -> PreparedMapping:
    """Build the workload, map it and validate the mapping."""
    params = WorkloadParams(
        chunk_elems=config.chunk_elems, data_chunks=config.data_chunks
    )
    with phase("workload_build"):
        nest, data_space = workload.build(params)
        chunk_matrix = chunk_matrix_for(nest, data_space)
    mapper = make_mapper(version, config)
    rng = make_rng(derive_seed(config.seed, workload.name, version))
    # The mapper reads only the hierarchy's shape, never its caches.
    mapping = mapper.map(
        nest, data_space, config.build_hierarchy(), rng, chunk_matrix=chunk_matrix
    )
    mapping.validate(nest.num_iterations)
    return PreparedMapping(
        workload.name, version, nest, data_space, chunk_matrix, mapping
    )


def prepare_cell(
    prepared: PreparedMapping, config: "SystemConfig"
) -> PreparedExperiment:
    """One cell's simulator inputs: a fresh hierarchy and file system, streams."""
    mapping, nest, data_space = prepared.mapping, prepared.nest, prepared.data_space
    hierarchy = config.build_hierarchy()
    filesystem = ParallelFileSystem(
        config.num_storage_nodes,
        chunk_bytes=config.chunk_elems * 1024,  # 1 element == 1 KB
        disk_params=config.disk,
    )
    with phase("streams"):
        if config.writeback:
            streams, write_masks = build_client_streams_with_writes(
                mapping, nest, data_space, chunk_matrix=prepared.chunk_matrix
            )
        else:
            streams = build_client_streams(
                mapping, nest, data_space, chunk_matrix=prepared.chunk_matrix
            )
            write_masks = None
    return PreparedExperiment(
        workload=prepared.workload,
        version=prepared.version,
        streams=streams,
        write_masks=write_masks,
        iterations_per_client=mapping.iteration_counts(),
        num_data_chunks=data_space.num_chunks,
        mapping=mapping,
        hierarchy=hierarchy,
        filesystem=filesystem,
    )


def prepare_experiment(
    workload: Workload,
    config: "SystemConfig",
    version: str,
) -> PreparedExperiment:
    """Run the expensive stage: build, map, validate, generate streams."""
    with phase("prepare"):
        return prepare_cell(prepare_mapping(workload, config, version), config)


def simulate_prepared(
    prep: PreparedExperiment,
    config: "SystemConfig",
    sync_counts: dict[int, int] | None = None,
    recorder: "TraceRecorder | None" = None,
    engine: str | None = None,
) -> ExperimentResult:
    """Simulate one prepared cell and wrap the outcome as a result."""
    simulate = resolve_engine(engine)
    with phase("simulate"):
        sim = simulate(
            prep.streams,
            prep.hierarchy,
            prep.filesystem,
            latency=config.latency,
            sync_counts=sync_counts,
            iterations_per_client=prep.iterations_per_client,
            write_masks=prep.write_masks,
            prefetch_degree=config.prefetch_degree,
            num_data_chunks=prep.num_data_chunks,
            recorder=recorder,
        )
    result = ExperimentResult(
        workload=prep.workload,
        version=prep.version,
        sim=sim,
        mapping_time_s=prep.mapping.mapping_time_s,
        extra={"imbalance": prep.mapping.imbalance()},
    )
    reg = get_registry()
    if reg.enabled:
        labels = {"workload": prep.workload, "version": prep.version}
        reg.counter("experiment.runs", **labels).inc()
        reg.histogram("experiment.mapping_time_s", **labels).observe(
            result.mapping_time_s
        )
        reg.histogram("experiment.execution_time_ms", **labels).observe(
            result.execution_time_ms
        )
    return result


def run_cells(
    workload: Workload,
    version: str,
    cells: Sequence[tuple["SystemConfig", dict[str, Any]]],
) -> list[ExperimentResult]:
    """Map once, then simulate every ``(config, options)`` cell.

    The cells must share one :class:`~repro.exec.keys.MappingKey`; the
    mapping is prepared from the first config and every later cell
    reuses it (counted as ``prepare.reused``), so all of them report
    the one measured ``mapping_time_s``.  ``options`` are
    :func:`simulate_prepared`'s keyword arguments.  Each cell's
    ``prepare`` phase covers its streams; the first also covers the
    workload build and the mapping.
    """
    prepared = None
    results = []
    for config, options in cells:
        with phase("prepare"):
            if prepared is None:
                prepared = prepare_mapping(workload, config, version)
            else:
                get_registry().counter("prepare.reused").inc()
            prep = prepare_cell(prepared, config)
        results.append(simulate_prepared(prep, config, **options))
    return results


def run_experiment(
    workload: Workload,
    config: "SystemConfig",
    version: str,
    sync_counts: dict[int, int] | None = None,
    recorder: "TraceRecorder | None" = None,
    engine: str | None = None,
) -> ExperimentResult:
    """Map and simulate one workload under one version.

    All eight suite workloads are mapped as fully parallel iteration
    sets (paper §3 — parallelization is orthogonal); the §5.4
    dependence experiments pass explicit ``sync_counts``.  An optional
    ``recorder`` receives the simulation's event trace
    (:mod:`repro.trace`).  ``engine`` selects the simulation engine
    (``reference``/``fast``); ``None`` uses the process default.
    """
    options = {"sync_counts": sync_counts, "recorder": recorder, "engine": engine}
    (result,) = run_cells(workload, version, [(config, options)])
    return result
