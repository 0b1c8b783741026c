"""Shared sweep driver for the figure/table experiments.

Runs versions over the suite and computes the paper's normalized
values and average improvements.  Every sweep is a deduplicated
:class:`~repro.exec.plan.SweepPlan` run by
:func:`~repro.exec.plan.execute_plan`: tasks consult the active
content-addressed store first (when there is one) and the misses run on
the active executor — serially in-process by default, or fanned out
over the process pool — so each unique (workload, config, version) key,
the store's cache key, simulates at most once per sweep *and* across
sweeps sharing a store.  Every result passes through the same
serialisation round-trip, so output is identical on every path.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.simulator.metrics import ExperimentResult
from repro.simulator.runner import VERSIONS
from repro.workloads.base import Workload
from repro.workloads.suite import SUITE

__all__ = ["run_suite", "normalized_suite", "average_improvement"]


def run_suite(
    config,
    versions: Sequence[str] = VERSIONS,
    workloads: Iterable[Workload] | None = None,
) -> dict[str, dict[str, ExperimentResult]]:
    """Run every (workload, version) pair: ``{workload: {version: result}}``.

    The active execution context (:func:`repro.exec.use_execution`)
    supplies the executor that parallelizes the independent runs and
    the store that caches per-(workload, config, version) results;
    with neither, runs execute serially in-process.
    """
    from repro.exec.plan import SweepPlan, execute_plan

    workloads = list(workloads) if workloads is not None else list(SUITE)
    plan = SweepPlan()
    keys = {
        (w.name, v): plan.add(w, config, v) for w in workloads for v in versions
    }
    results = execute_plan(plan)
    return {
        w.name: {v: results[keys[(w.name, v)].digest] for v in versions}
        for w in workloads
    }


def normalized_suite(
    results: dict[str, dict[str, ExperimentResult]],
) -> dict[str, dict[str, dict[str, float]]]:
    """Normalize every version against ``original``, per workload.

    ``{workload: {version: {metric: normalized value}}}`` with metrics
    ``io_latency``, ``execution_time`` and ``miss_rate_L*``; the
    baseline's own entries are all exactly 1.0.
    """
    out: dict[str, dict[str, dict[str, float]]] = {}
    for wname, per_version in results.items():
        if "original" not in per_version:
            raise KeyError(f"baseline 'original' missing for {wname}")
        base = per_version["original"]
        out[wname] = {
            v: res.normalized_against(base) for v, res in per_version.items()
        }
    return out


def average_improvement(
    normalized: dict[str, dict[str, dict[str, float]]],
    version: str,
    metric: str,
) -> float:
    """Mean improvement of a metric across workloads, as a fraction.

    E.g. 0.263 means a 26.3 % average reduction versus the baseline —
    the units the paper's prose reports.
    """
    values = [per_version[version][metric] for per_version in normalized.values()]
    if not values:
        raise ValueError("no workloads in the normalized results")
    return 1.0 - sum(values) / len(values)
