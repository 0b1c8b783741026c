"""repro — storage-cache-hierarchy-aware computation mapping.

A from-scratch reproduction of *"Computation Mapping for Multi-Level
Storage Cache Hierarchies"* (Kandemir, Muralidhara, Karakoy, Son —
HPDC 2010): a compiler-directed scheme that distributes loop iterations
across the client nodes of a parallel system so the shared storage
cache hierarchy (compute-node, I/O-node and storage-node caches) is
used constructively.

Quickstart::

    from repro import (
        figure6_workload, figure7_hierarchy, InterProcessorMapper,
    )
    nest, data = figure6_workload(d=16)
    hierarchy = figure7_hierarchy()
    mapping = InterProcessorMapper(schedule=True).map(nest, data, hierarchy)
    print(mapping.iteration_counts())

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-versus-measured evaluation.
"""

from repro.analysis import (
    mapping_affinity_quality,
    mapping_footprints,
    reuse_distance_profile,
    sharing_matrix,
)
from repro.compiler import CompiledProgram, compile_nest
from repro.core import (
    InterProcessorMapper,
    IntraProcessorMapper,
    Mapping,
    OriginalMapper,
    combine_nests,
    form_iteration_chunks,
)
from repro.experiments.config import DEFAULT_CONFIG, SystemConfig, scaled_config
from repro.hierarchy import (
    CacheHierarchy,
    three_level_hierarchy,
    uniform_hierarchy,
)
from repro.polyhedral import (
    AffineExpr,
    ArrayRef,
    DataSpace,
    DiskArray,
    IterationSpace,
    LoopNest,
)
from repro.simulator import LatencyModel, run_experiment
from repro.telemetry import (
    MetricsRegistry,
    build_manifest,
    get_registry,
    load_manifest,
    phase,
    save_manifest,
    use_registry,
)
from repro.trace import (
    MemoryRecorder,
    NullRecorder,
    TraceArtifact,
    diff_artifacts,
    diff_traces,
    load_artifact,
    record,
    replay,
    save_artifact,
)
from repro.workloads import SUITE, figure6_workload, figure7_hierarchy, get_workload

__version__ = "1.0.0"

__all__ = [
    "InterProcessorMapper",
    "IntraProcessorMapper",
    "OriginalMapper",
    "Mapping",
    "combine_nests",
    "form_iteration_chunks",
    "SystemConfig",
    "DEFAULT_CONFIG",
    "scaled_config",
    "CacheHierarchy",
    "three_level_hierarchy",
    "uniform_hierarchy",
    "CompiledProgram",
    "compile_nest",
    "reuse_distance_profile",
    "sharing_matrix",
    "mapping_footprints",
    "mapping_affinity_quality",
    "AffineExpr",
    "ArrayRef",
    "DataSpace",
    "DiskArray",
    "IterationSpace",
    "LoopNest",
    "LatencyModel",
    "run_experiment",
    "MetricsRegistry",
    "get_registry",
    "use_registry",
    "phase",
    "build_manifest",
    "save_manifest",
    "load_manifest",
    "MemoryRecorder",
    "NullRecorder",
    "TraceArtifact",
    "record",
    "replay",
    "save_artifact",
    "load_artifact",
    "diff_traces",
    "diff_artifacts",
    "SUITE",
    "get_workload",
    "figure6_workload",
    "figure7_hierarchy",
    "__version__",
]
