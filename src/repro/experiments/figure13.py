"""Figure 13: cache-capacity sensitivity of the Inter-processor scheme.

Paper result: growing any cache capacity shrinks the savings (the
Original version benefits more from extra capacity, especially at the
shared I/O/storage levels), while halving the capacities boosts them —
"the increases in data set sizes … outmatch the increases in storage
cache capacities", so the approach gets *more* relevant over time.

The trend is asserted on the scheduled scheme: its intra-client
ordering is capacity-independent, so it cleanly shows the paper's
monotone relationship at our scale.  The unscheduled scheme's
formation-order reuse interacts with the shrunken windows below 1x (a
downscale artifact) and is reported alongside.
"""

from __future__ import annotations

from repro.experiments.config import SystemConfig, scaled_config
from repro.experiments.harness import (
    SweepPoint,
    normalized_suite,
    run_sweep,
    suite_mean,
)
from repro.experiments.report import ExperimentReport

__all__ = ["run", "sweep", "CAPACITY_MULTIPLIERS"]

#: Per-level multipliers of the default capacities, mirroring the paper's
#: (1,1,1) / (2,2,2) / (4,4,4) GB style sweep plus an asymmetric point.
CAPACITY_MULTIPLIERS = (
    (0.5, 0.5, 0.5),
    (1.0, 1.0, 1.0),
    (2.0, 2.0, 2.0),
    (1.0, 2.0, 2.0),
    (4.0, 4.0, 4.0),
)


def sweep(config: SystemConfig | None) -> list[SweepPoint]:
    """The points :func:`run` simulates, one per capacity point, in order."""
    base = config or scaled_config(4)
    l1, l2, l3 = base.cache_elems
    return [
        (
            base.with_cache_capacities(
                max(64, int(l1 * m1)), max(64, int(l2 * m2)), max(64, int(l3 * m3))
            ),
            ("original", "inter", "inter+sched"),
        )
        for m1, m2, m3 in CAPACITY_MULTIPLIERS
    ]


def run(config: SystemConfig | None = None) -> ExperimentReport:
    headers = [
        "capacities (L1,L2,L3)",
        "inter io",
        "inter exec",
        "inter+sched io",
        "inter+sched exec",
    ]
    rows = []
    summary = {}
    for (m1, m2, m3), results in zip(CAPACITY_MULTIPLIERS, run_sweep(sweep(config))):
        normalized = normalized_suite(results)
        row = [f"({m1:g}x,{m2:g}x,{m3:g}x)"]
        for version in ("inter", "inter+sched"):
            io = suite_mean(normalized, version, "io_latency")
            ex = suite_mean(normalized, version, "execution_time")
            row.extend([f"{io:.3f}", f"{ex:.3f}"])
            summary[f"{version}_io_{m1:g}_{m2:g}_{m3:g}"] = io
        rows.append(row)
    notes = [
        "suite-average values normalized to the Original version per capacity point",
        "paper: bigger caches shrink the savings; halving capacities boosts them",
        "the scheduled scheme shows the monotone trend; the unscheduled one"
        " depends on window sizes below 1x (downscale artifact, see DESIGN.md)",
    ]
    return ExperimentReport(
        "Figure 13",
        "Normalized latencies with different cache capacities",
        headers,
        rows,
        notes=notes,
        summary=summary,
    )
