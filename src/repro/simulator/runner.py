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
:func:`prepare_cell` then generates one cell's streams, and
:func:`simulate_prepared` simulates them.
:func:`run_cells` prepares a group of cells that share a
:func:`~repro.exec.keys.group_key` once — one nest build, one Fig. 5
distribution for ``inter`` and ``inter+sched``, one mapping per
``MappingKey`` — and simulates every cell; :func:`run_experiment` is
the one-cell case.
:func:`prepare_experiment` stops before simulating, so the trace
subsystem can capture its output once and re-simulate it many times
(:mod:`repro.trace.replay`).

:func:`simulate_streams` is the one place a config becomes a machine
and the engine runs on it: cells, scenario payloads, trace replays and
the §5.4 discussion all simulate through it, so a replay under an
artifact's recorded config reproduces :func:`run_experiment` by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.core.baselines import IntraProcessorMapper, OriginalMapper
from repro.core.chunking import chunk_matrix_for
from repro.core.clustering import DistributionResult
from repro.core.mapper import InterProcessorMapper
from repro.core.mapping import Mapping
from repro.hierarchy.topology import CacheHierarchy
from repro.polyhedral.arrays import DataSpace
from repro.polyhedral.nest import LoopNest
from repro.simulator.engines import resolve_engine
from repro.simulator.metrics import ExperimentResult, SimulationResult
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
    "prepare_mappings",
    "prepare_cell",
    "prepare_experiment",
    "simulate_streams",
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
    """One cell's simulator inputs (no machine), with the mapping stage done."""

    workload: str
    version: str
    streams: dict[int, np.ndarray]
    write_masks: dict[int, np.ndarray] | None
    iterations_per_client: dict[int, int]
    num_data_chunks: int
    mapping: Mapping


class _Group:
    """What one group of cells prepares once.

    The nest and its chunk matrix are built for the first cell; the
    Fig. 5 distribution is kept from the first ``inter``-family mapping
    and finalized again for the other version (counted as
    ``prepare.distribution_reused``); each
    :class:`~repro.exec.keys.MappingKey`'s mapping is made once (later
    cells count ``prepare.reused``).
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self._built: tuple[LoopNest, DataSpace, np.ndarray] | None = None
        self._distribution: DistributionResult | None = None
        self._mappings: dict[Any, PreparedMapping] = {}

    def mapping(self, config: "SystemConfig", version: str) -> PreparedMapping:
        from repro.exec.keys import mapping_key

        name = self.workload.name
        key = mapping_key(name, config, version)
        prepared = self._mappings.get(key)
        if prepared is not None:
            get_registry().counter("prepare.reused").inc()
            return prepared
        if self._built is None:
            params = WorkloadParams(
                chunk_elems=config.chunk_elems, data_chunks=config.data_chunks
            )
            with phase("workload_build"):
                nest, data_space = self.workload.build(params)
                self._built = (nest, data_space, chunk_matrix_for(nest, data_space))
        nest, data_space, chunk_matrix = self._built
        mapper = make_mapper(version, config)
        rng = make_rng(derive_seed(config.seed, name, version))
        # The mapper reads only the hierarchy's shape, never its caches.
        hierarchy = config.build_hierarchy()
        if self._distribution is not None and isinstance(
            mapper, InterProcessorMapper
        ):
            get_registry().counter("prepare.distribution_reused").inc()
            mapping = mapper.map_distribution(self._distribution, hierarchy, rng)
        else:
            mapping = mapper.map(
                nest, data_space, hierarchy, rng, chunk_matrix=chunk_matrix
            )
            if self._distribution is None:
                self._distribution = mapping.distribution
        mapping.validate(nest.num_iterations)
        prepared = PreparedMapping(
            name, version, nest, data_space, chunk_matrix, mapping
        )
        self._mappings[key] = prepared
        return prepared


def prepare_mappings(
    workload: Workload,
    config: "SystemConfig",
    versions: Sequence[str],
) -> list[PreparedMapping]:
    """Map one workload under each version, as one group.

    The workload and its chunk matrix are built once, and ``inter`` and
    ``inter+sched`` share one Fig. 5 distribution.
    """
    group = _Group(workload)
    return [group.mapping(config, version) for version in versions]


def prepare_mapping(
    workload: Workload,
    config: "SystemConfig",
    version: str,
) -> PreparedMapping:
    """Build the workload, map it and validate the mapping."""
    (prepared,) = prepare_mappings(workload, config, [version])
    return prepared


def prepare_cell(
    prepared: PreparedMapping, config: "SystemConfig"
) -> PreparedExperiment:
    """One cell's simulator inputs: its streams (and write masks)."""
    mapping, nest, data_space = prepared.mapping, prepared.nest, prepared.data_space
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
    )


def prepare_experiment(
    workload: Workload,
    config: "SystemConfig",
    version: str,
) -> PreparedExperiment:
    """Run the expensive stage: build, map, validate, generate streams."""
    with phase("prepare"):
        return prepare_cell(prepare_mapping(workload, config, version), config)


def simulate_streams(
    streams: dict[int, np.ndarray],
    config: "SystemConfig",
    *,
    engine: str | None = None,
    hierarchy: CacheHierarchy | None = None,
    filesystem: ParallelFileSystem | None = None,
    prefetch_degree: int | None = None,
    **inputs: Any,
) -> SimulationResult:
    """Simulate ``streams`` on a fresh machine built from ``config``.

    The engine runs with the config's latency model and prefetch degree;
    ``inputs`` are its per-run arguments (``write_masks``,
    ``iterations_per_client``, ``sync_counts``, ``num_data_chunks``,
    ``recorder``).  ``hierarchy``/``filesystem`` replace the built
    machine, to inspect its state afterwards; ``prefetch_degree``
    replaces the config's degree.
    """
    if hierarchy is None:
        hierarchy = config.build_hierarchy()
    if filesystem is None:
        filesystem = config.build_filesystem()
    if prefetch_degree is None:
        prefetch_degree = config.prefetch_degree
    simulate = resolve_engine(engine)
    with phase("simulate"):
        return simulate(
            streams,
            hierarchy,
            filesystem,
            latency=config.latency,
            prefetch_degree=prefetch_degree,
            **inputs,
        )


def simulate_prepared(
    prep: PreparedExperiment,
    config: "SystemConfig",
    sync_counts: dict[int, int] | None = None,
    recorder: "TraceRecorder | None" = None,
    engine: str | None = None,
) -> ExperimentResult:
    """Simulate one prepared cell and wrap the outcome as a result."""
    sim = simulate_streams(
        prep.streams,
        config,
        write_masks=prep.write_masks,
        iterations_per_client=prep.iterations_per_client,
        sync_counts=sync_counts,
        num_data_chunks=prep.num_data_chunks,
        recorder=recorder,
        engine=engine,
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
    cells: Sequence[tuple[str, "SystemConfig", dict[str, Any]]],
) -> list[ExperimentResult]:
    """Prepare a group once, then simulate every ``(version, config, options)`` cell.

    The cells must share one :func:`~repro.exec.keys.group_key`
    (``ValueError`` otherwise).  The nest is built once, ``inter`` and
    ``inter+sched`` share one distribution, and cells sharing a
    :class:`~repro.exec.keys.MappingKey` share its mapping and report
    its one ``mapping_time_s``: the distribution's time plus that
    mapping's own finalize time, as a lone :func:`prepare_mapping`
    measures it.  ``options`` are :func:`simulate_prepared`'s keyword
    arguments.  Each cell's ``prepare`` phase covers its streams, plus
    whatever it is the first cell to need.
    """
    from repro.exec.keys import group_key

    if len({group_key(workload.name, config, v) for v, config, _ in cells}) > 1:
        raise ValueError("run_cells: cells must share one group key")
    group = _Group(workload)
    results = []
    for version, config, options in cells:
        with phase("prepare"):
            prep = prepare_cell(group.mapping(config, version), config)
        results.append(simulate_prepared(prep, config, **options))
    return results


def run_experiment(
    workload: Workload,
    config: "SystemConfig",
    version: str,
) -> ExperimentResult:
    """Map and simulate one workload under one version.

    All eight suite workloads are mapped as fully parallel iteration
    sets (paper §3 — parallelization is orthogonal) and simulated on
    the process-default engine; :func:`run_cells` takes per-cell
    options (sync counts, a recorder, an engine).
    """
    (result,) = run_cells(workload, [(version, config, {})])
    return result
