"""Figure 18: the local-scheduling enhancement (Fig. 15, α = β = 0.5).

Paper result: applying the scheduling pass after distribution reduces
L1 misses by 27.8 % on average versus the Original (the unscheduled
Inter-processor scheme managed 15.3 %), lifting the I/O-latency and
execution-time improvements to 30.7 % and 21.9 %.  The extra L2/L3
improvements are limited (under 3 % each).
"""

from __future__ import annotations

from repro.experiments.config import DEFAULT_CONFIG, SystemConfig
from repro.experiments.harness import (
    SweepPoint,
    miss_ratio,
    normalized_suite,
    rows_with_average,
    run_sweep,
)
from repro.experiments.report import ExperimentReport

__all__ = ["run", "sweep"]

def sweep(config: SystemConfig | None) -> list[SweepPoint]:
    """The one point :func:`run` simulates."""
    return [(config or DEFAULT_CONFIG, ("original", "inter", "inter+sched"))]


def run(config: SystemConfig | None = None) -> ExperimentReport:
    (results,) = run_sweep(sweep(config))
    normalized = normalized_suite(results)
    headers = [
        "application",
        "sched L1 misses",
        "sched io",
        "sched exec",
        "inter io (unscheduled)",
    ]
    rows, means = rows_with_average(
        {
            wname: (
                miss_ratio(per_version, "inter+sched", "L1"),
                normalized[wname]["inter+sched"]["io_latency"],
                normalized[wname]["inter+sched"]["execution_time"],
                normalized[wname]["inter"]["io_latency"],
            )
            for wname, per_version in results.items()
        }
    )
    keys = ("sched_L1_misses", "sched_io", "sched_exec", "unsched_io")
    summary = dict(zip(keys, means))
    notes = [
        "values normalized to the Original version; alpha = beta = 0.5",
        "paper averages: L1 misses 0.722, io 0.693, exec 0.781",
    ]
    return ExperimentReport(
        "Figure 18",
        "Improvements from the iteration-chunk scheduling enhancement",
        headers,
        rows,
        notes=notes,
        summary=summary,
    )
