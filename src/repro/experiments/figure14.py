"""Figure 14: data-chunk-size sensitivity of the Inter-processor scheme.

Paper result: smaller chunks mean smaller iteration chunks and finer
clustering, so savings *grow* as the chunk shrinks (16 KB best, 128 KB
worst) — at the price of compilation time (+75 % from 64 KB to 16 KB).
The dataset's byte size is held fixed, so the chunk count (and the tag
width r) grows as the chunk shrinks.
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

__all__ = ["run", "sweep", "CHUNK_SIZES"]

#: Chunk sizes in elements (1 element == 1 KB: the paper's 16/32/64/128 KB).
CHUNK_SIZES = (16, 32, 64, 128)


def sweep(config: SystemConfig | None) -> list[SweepPoint]:
    """The points :func:`run` simulates, one per chunk size, in order."""
    base = config or scaled_config(4)
    return [
        (base.with_chunk_elems(chunk), ("original", "inter")) for chunk in CHUNK_SIZES
    ]


def run(config: SystemConfig | None = None) -> ExperimentReport:
    headers = ["chunk size", "inter io", "inter exec", "mapping time (s)"]
    rows = []
    summary = {}
    for chunk, results in zip(CHUNK_SIZES, run_sweep(sweep(config))):
        normalized = normalized_suite(results)
        io = suite_mean(normalized, "inter", "io_latency")
        ex = suite_mean(normalized, "inter", "execution_time")
        map_t = sum(pv["inter"].mapping_time_s for pv in results.values())
        rows.append([f"{chunk}KB", f"{io:.3f}", f"{ex:.3f}", f"{map_t:.2f}"])
        summary[f"io_{chunk}"] = io
        summary[f"mapping_s_{chunk}"] = map_t
    notes = [
        "suite-average values normalized to the Original version per chunk size",
        "paper: smaller chunks improve savings but inflate compilation time",
    ]
    return ExperimentReport(
        "Figure 14",
        "Normalized latencies with different data chunk sizes",
        headers,
        rows,
        notes=notes,
        summary=summary,
    )
