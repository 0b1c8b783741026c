"""Figure 10: normalized L1/L2/L3 misses, Intra- vs Inter-processor.

Paper result: the Intra-processor scheme reduces L1 misses (avg
-16.2 %) but barely touches L2/L3 (-2.1 %/-0.5 %); the Inter-processor
scheme reduces misses at *all three* levels (-15.3 %/-31.0 %/-24.6 %).

Metric note: the paper plots normalized miss *rates*.  At our scale a
better mapping also shrinks each shared level's *access count* (fewer
upper-level misses reach it), which makes rate ratios misleading —
absolute misses drop sharply while the rate denominator collapses.  We
therefore normalize *miss counts* against the Original version; on the
paper's testbed (where level access counts barely move) the two
normalizations coincide.
"""

from __future__ import annotations

from repro.experiments.config import DEFAULT_CONFIG, SystemConfig
from repro.experiments.harness import (
    SweepPoint,
    miss_ratio,
    rows_with_average,
    run_sweep,
)
from repro.experiments.report import ExperimentReport

__all__ = ["run", "sweep", "LEVELS"]

LEVELS = ("L1", "L2", "L3")

#: Paper's average reductions, for the report footer (percent).
PAPER_AVG = {
    "intra": {"L1": 16.2, "L2": 2.1, "L3": 0.5},
    "inter": {"L1": 15.3, "L2": 31.0, "L3": 24.6},
}


def sweep(config: SystemConfig | None) -> list[SweepPoint]:
    """The one point :func:`run` simulates."""
    return [(config or DEFAULT_CONFIG, ("original", "intra", "inter"))]


def run(config: SystemConfig | None = None) -> ExperimentReport:
    (results,) = run_sweep(sweep(config))
    columns = [(v, l) for v in ("intra", "inter") for l in LEVELS]
    headers = ["application"] + [f"{v} {l}" for v, l in columns]
    rows, means = rows_with_average(
        {
            wname: [miss_ratio(per_version, v, l) for v, l in columns]
            for wname, per_version in results.items()
        }
    )
    summary = {f"{v}_{l}": mean for (v, l), mean in zip(columns, means)}
    notes = [
        "values are misses normalized to the Original version (1.0 = no change)",
        "paper average reductions: "
        + "; ".join(
            f"{v}: L1 -{PAPER_AVG[v]['L1']}%, L2 -{PAPER_AVG[v]['L2']}%, L3 -{PAPER_AVG[v]['L3']}%"
            for v in ("intra", "inter")
        ),
    ]
    return ExperimentReport(
        "Figure 10",
        "Normalized cache misses for the L1, L2 and L3 storage caches",
        headers,
        rows,
        notes=notes,
        summary=summary,
    )
