"""Pre-registration of the pipeline's standard instruments.

A run that never exercises a stage (e.g. ``table2`` maps only the
Original version, so clustering/balancing never execute) would otherwise
produce a manifest with those series simply absent — indistinguishable
from "the stage ran and recorded nothing".  Pre-registering the known
instruments at zero (the usual Prometheus client-library convention)
makes every manifest carry the full set, so dashboards and
``repro metrics diff`` see explicit zeros instead of missing keys.

Stages that do run add their *labelled* series (e.g.
``clustering.merges{level=L2}``) alongside these label-less aggregates.
"""

from __future__ import annotations

__all__ = ["PIPELINE_COUNTERS", "PIPELINE_HISTOGRAMS", "declare_pipeline_metrics"]

#: Counters any full pipeline run may emit, in pipeline order.
PIPELINE_COUNTERS = (
    "clustering.merges",
    "clustering.splits",
    "balancing.moves",
    "balancing.splits",
    "scheduling.groups",
    "scheduling.forced",
    "compiler.sync_directives",
    "cache.writebacks",
    "disk.reads",
    "disk.writes",
    "simulator.simulations",
    "prepare.reused",
    "prepare.distribution_reused",
    "exec.tasks.submitted",
    "exec.tasks.completed",
    "exec.retries",
    "exec.timeouts",
    "exec.tasks.failed",
    "exec.pool_restarts",
    "exec.store.hits",
    "exec.store.misses",
    "exec.store.writes",
    "exec.store.touches",
    "exec.store.corrupt",
    "exec.store.invalidated",
    "exec.store.evictions",
)

#: Histograms any full pipeline run may emit.
PIPELINE_HISTOGRAMS = ("balancing.imbalance",)


def declare_pipeline_metrics(registry) -> None:
    """Create the standard pipeline instruments (at zero) in ``registry``."""
    if not registry.enabled:
        return
    for name in PIPELINE_COUNTERS:
        registry.counter(name)
    for name in PIPELINE_HISTOGRAMS:
        registry.histogram(name)
