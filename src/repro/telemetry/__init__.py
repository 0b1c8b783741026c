"""repro.telemetry — pipeline-wide metrics, phase profiling, run manifests.

The measurement substrate for the whole pipeline: a
:class:`MetricsRegistry` of counters/gauges/histograms with
hierarchical names and labels (``clustering.merges{level=L2}``), a
nesting :func:`phase` timer that records every pipeline stage into the
``phase.duration_seconds{phase=<path>}`` histogram, and two exporters
— structured JSON run manifests (config fingerprint, git/seed/versions,
all metrics, the phase tree derived from that histogram, experiment
summaries) and Prometheus text exposition.

Disabled by default: the active registry starts as
:data:`NULL_REGISTRY`, whose instruments are shared no-ops, so
instrumentation costs nothing unless a run opts in::

    from repro.telemetry import MetricsRegistry, use_registry, build_manifest

    registry = MetricsRegistry()
    with use_registry(registry):
        run_experiment(...)
    save_manifest("run.json", build_manifest(registry, config=config))

The CLI wires this up via ``--telemetry PATH`` on every experiment
command and reads manifests back with ``repro metrics
show|export|diff|validate``.
"""

from repro.telemetry.declarations import PIPELINE_COUNTERS, declare_pipeline_metrics
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA_VERSION,
    ManifestDiff,
    build_manifest,
    diff_manifests,
    load_manifest,
    save_manifest,
    validate_manifest,
)
from repro.telemetry.profiler import phase
from repro.telemetry.prometheus import manifest_to_prometheus, to_prometheus_text
from repro.telemetry.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    label_snapshot,
    thread_registry,
    use_registry,
)

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "get_registry",
    "label_snapshot",
    "use_registry",
    "thread_registry",
    "phase",
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "save_manifest",
    "load_manifest",
    "validate_manifest",
    "ManifestDiff",
    "diff_manifests",
    "to_prometheus_text",
    "manifest_to_prometheus",
    "PIPELINE_COUNTERS",
    "declare_pipeline_metrics",
]
