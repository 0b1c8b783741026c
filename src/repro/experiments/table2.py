"""Table 2: per-application storage-cache miss rates of the Original version.

Reports, for every workload, the measured (L1, L2, L3) miss rates of the
*original* mapping under the default configuration, side by side with
the paper's values.  The paper's qualitative trend — miss rates increase
with cache depth because shared levels suffer destructive interference —
is the property to check; absolute values differ (synthetic workloads).
"""

from __future__ import annotations

from repro.experiments.config import DEFAULT_CONFIG, SystemConfig
from repro.experiments.harness import SweepPoint, run_sweep
from repro.experiments.report import ExperimentReport
from repro.workloads.suite import SUITE

__all__ = ["run", "sweep"]


def sweep(config: SystemConfig | None) -> list[SweepPoint]:
    """The one point :func:`run` simulates: the Original version."""
    return [(config or DEFAULT_CONFIG, ("original",))]


def run(config: SystemConfig | None = None) -> ExperimentReport:
    headers = [
        "application",
        "L1 (%)",
        "L2 (%)",
        "L3 (%)",
        "paper L1",
        "paper L2",
        "paper L3",
    ]
    rows = []
    deeper_is_worse = 0
    (results,) = run_sweep(sweep(config))
    for w in SUITE:
        res = results[w.name]["original"]
        l1 = 100.0 * res.miss_rate("L1")
        l2 = 100.0 * res.miss_rate("L2")
        l3 = 100.0 * res.miss_rate("L3")
        if l1 <= l2 or l2 <= l3:
            deeper_is_worse += 1
        p1, p2, p3 = w.paper_miss_rates
        rows.append(
            [w.name, f"{l1:.1f}", f"{l2:.1f}", f"{l3:.1f}", p1, p2, p3]
        )
    return ExperimentReport(
        "Table 2",
        "Original-version miss rates per storage cache level",
        headers,
        rows,
        notes=[
            "paper columns are Table 2's values on the authors' testbed",
            f"{deeper_is_worse}/8 applications show the paper's deeper-level degradation trend",
        ],
        summary={"apps_with_deeper_degradation": float(deeper_is_worse)},
    )
