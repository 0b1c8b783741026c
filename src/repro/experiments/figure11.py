"""Figure 11: normalized I/O latency and total execution time.

Paper result: Intra-processor improves I/O latency by 6.8 % and
execution time by 3.5 % on average; Inter-processor improves them by
26.3 % and 18.9 % — the headline numbers of the paper.
"""

from __future__ import annotations

from repro.experiments.config import DEFAULT_CONFIG, SystemConfig
from repro.experiments.harness import (
    SweepPoint,
    average_improvement,
    normalized_suite,
    run_sweep,
)
from repro.experiments.report import ExperimentReport

__all__ = ["run", "sweep"]


def sweep(config: SystemConfig | None) -> list[SweepPoint]:
    """The one point :func:`run` simulates."""
    return [(config or DEFAULT_CONFIG, ("original", "intra", "inter"))]


def run(config: SystemConfig | None = None) -> ExperimentReport:
    (results,) = run_sweep(sweep(config))
    normalized = normalized_suite(results)
    headers = ["application", "intra io", "inter io", "intra exec", "inter exec"]
    columns = [
        (version, metric)
        for metric in ("io_latency", "execution_time")
        for version in ("intra", "inter")
    ]
    rows = [
        [wname] + [f"{per_version[v][m]:.3f}" for v, m in columns]
        for wname, per_version in normalized.items()
    ]
    summary = {
        f"{v}_{m}_improvement": average_improvement(normalized, v, m)
        for v, m in columns
    }
    rows.append(["AVERAGE"] + [f"{1 - imp:.3f}" for imp in summary.values()])
    notes = [
        "values normalized to the Original version (lower is better)",
        "paper averages: intra io -6.8%, exec -3.5%; inter io -26.3%, exec -18.9%",
    ]
    return ExperimentReport(
        "Figure 11",
        "Normalized I/O latency and total execution time",
        headers,
        rows,
        notes=notes,
        summary=summary,
    )
