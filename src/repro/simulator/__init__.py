"""Parallel execution simulator over the storage cache hierarchy.

Turns a :class:`~repro.core.mapping.Mapping` into per-client
chunk-access streams (:mod:`~repro.simulator.streams`), interleaves the
clients round-robin through the shared cache tree and the striped disks
(:mod:`~repro.simulator.engine`), and aggregates the paper's metrics —
per-level miss rates, I/O latency, execution time
(:mod:`~repro.simulator.metrics`).  :mod:`~repro.simulator.runner` wires
one (workload, topology, mapper) experiment end to end.
"""

from repro.simulator.streams import build_client_streams
from repro.simulator.engine import LatencyModel
from repro.simulator.engines import (
    ENGINE_NAMES,
    get_default_engine,
    resolve_engine,
    set_default_engine,
)
from repro.simulator.metrics import SimulationResult, ExperimentResult
from repro.simulator.runner import (
    run_experiment,
    prepare_experiment,
    PreparedExperiment,
    VERSIONS,
    make_mapper,
)

__all__ = [
    "build_client_streams",
    "LatencyModel",
    "ENGINE_NAMES",
    "get_default_engine",
    "set_default_engine",
    "resolve_engine",
    "SimulationResult",
    "ExperimentResult",
    "run_experiment",
    "prepare_experiment",
    "PreparedExperiment",
    "VERSIONS",
    "make_mapper",
]
