"""Shared sweep driver for the figure/table experiments.

Each experiment module declares its sweep once, as ``sweep(config)``:
the ``(SystemConfig, versions)`` points it runs over the suite.
:func:`run_sweep` runs them as one deduplicated
:class:`~repro.exec.plan.SweepPlan` through
:func:`~repro.exec.plan.execute_plan`: store first, then the active
executor (serial in-process by default), so each unique (workload,
config, version) key simulates at most once per sweep and across sweeps
sharing a store, and points sharing a
:class:`~repro.exec.keys.MappingKey` (a capacity sweep's) map each
workload once.  Every result passes through the same serialisation
round-trip, so output is identical on every path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.simulator.metrics import ExperimentResult
from repro.simulator.runner import VERSIONS
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import SystemConfig

__all__ = [
    "run_sweep",
    "run_suite",
    "normalized_suite",
    "suite_mean",
    "average_improvement",
    "miss_ratio",
    "rows_with_average",
]

#: One sweep point: a config and the versions run at it over the suite.
SweepPoint = tuple["SystemConfig", Sequence[str]]


def run_sweep(
    points: Sequence[SweepPoint], workloads: Iterable[Workload] | None = None
) -> list[dict[str, dict[str, ExperimentResult]]]:
    """``{workload: {version: result}}`` per point, all run as one plan.

    ``workloads`` defaults to the suite; the executor and store come
    from the active context (:func:`repro.exec.use_execution`).
    """
    from repro.exec.plan import SweepPlan, execute_plan

    plan = SweepPlan()
    workloads = list(workloads) if workloads is not None else None
    keys = [plan.add_suite(config, versions, workloads) for config, versions in points]
    results = execute_plan(plan)
    return [
        {w: {v: results[k.digest] for v, k in per.items()} for w, per in point.items()}
        for point in keys
    ]


def run_suite(
    config: "SystemConfig",
    versions: Sequence[str] = VERSIONS,
    workloads: Iterable[Workload] | None = None,
) -> dict[str, dict[str, ExperimentResult]]:
    """:func:`run_sweep` of one point: ``{workload: {version: result}}``."""
    (results,) = run_sweep([(config, versions)], workloads)
    return results


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


def suite_mean(
    normalized: dict[str, dict[str, dict[str, float]]],
    version: str,
    metric: str,
) -> float:
    """Suite-average normalized ``metric`` of ``version`` (1.0 = baseline)."""
    values = [per_version[version][metric] for per_version in normalized.values()]
    if not values:
        raise ValueError("no workloads in the normalized results")
    return sum(values) / len(values)


def average_improvement(
    normalized: dict[str, dict[str, dict[str, float]]],
    version: str,
    metric: str,
) -> float:
    """Mean improvement of a metric across workloads, as a fraction.

    E.g. 0.263 means a 26.3 % average reduction versus the baseline —
    the units the paper's prose reports.
    """
    return 1.0 - suite_mean(normalized, version, metric)


def miss_ratio(
    per_version: dict[str, ExperimentResult], version: str, level: str
) -> float:
    """``version``'s misses at ``level`` over the Original's (1.0 if it has none)."""
    base = per_version["original"].sim.level_stats[level].misses
    return per_version[version].sim.level_stats[level].misses / base if base else 1.0


def rows_with_average(
    values: dict[str, Sequence[float]],
) -> tuple[list[list], list[float]]:
    """One ``.3f`` row per workload plus an ``AVERAGE`` row; returns the
    rows and the column means."""
    means = [sum(column) / len(column) for column in zip(*values.values())]
    rows = [[name] + [f"{x:.3f}" for x in row] for name, row in values.items()]
    rows.append(["AVERAGE"] + [f"{x:.3f}" for x in means])
    return rows, means
