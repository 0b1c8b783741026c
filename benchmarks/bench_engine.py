"""Benchmark: the vectorized engine vs the reference engine.

Runs a matrix of suite workloads (with and without prefetching) through
both simulation engines on identical pre-built inputs, reporting the
per-cell wall time, the speedup, and the shared result digest — the two
engines must produce bit-identical serialised results for a cell to be
reported at all (a digest mismatch aborts the run).

Two entry points:

* ``pytest benchmarks/bench_engine.py --benchmark-only`` — the usual
  table via ``report_sink``;
* ``python benchmarks/bench_engine.py -o BENCH_engine.json`` —
  standalone, writing the benchmark record (one row per cell, id
  ``hf/inter+sched/pf0/wt``; the record's ``speedup`` is the geomean)
  that the CI perf-gate job checks with ``gate.py`` against the pinned
  copy.

Timing is best-of-``--repeats`` per engine on a prepared experiment
(mapping excluded), so the ratio isolates exactly what the fast engine
replaces: the simulation hot loop.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from typing import Any

import gate
from repro.experiments.config import scaled_config
from repro.simulator.engines import resolve_engine
from repro.simulator.runner import prepare_experiment
from repro.util.fingerprint import canonical_json
from repro.workloads.suite import get_workload

#: (workload, version, prefetch_degree) cells. Chosen to cover the
#: engine's three hot loops: lean tree (no prefetch), tree+prefetch,
#: and — via the writeback cell — the masked write-back loop.
CASES: tuple[tuple[str, str, int, bool], ...] = (
    ("hf", "inter+sched", 0, False),
    ("hf", "original", 0, False),
    ("contour", "original", 0, False),
    ("madbench2", "inter+sched", 0, False),
    ("madbench2", "inter+sched", 4, False),
    ("astro", "inter+sched", 4, False),
    ("e_elem", "original", 0, False),
    ("hf", "inter+sched", 2, True),
)

SCALE = 4

#: Perf-gate bounds: the geomean speedup must reach 5x and every cell 2x
#: (the write-back cell keeps per-access dirty bookkeeping and sits
#: below the geomean by design, hence the lower per-cell bar).
GATE = {"min_speedup": 5, "min_row_speedup": 2}


def _digest(sim) -> str:
    from repro.simulator.serialization import _sim_to_dict

    material = canonical_json(_sim_to_dict(sim))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _time_engine(engine, prep, config, repeats: int):
    """Best-of-``repeats`` wall time; returns (seconds, result)."""
    best = float("inf")
    sim = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        sim = engine(
            prep.streams,
            prep.hierarchy,
            prep.filesystem,
            latency=config.latency,
            iterations_per_client=prep.iterations_per_client,
            write_masks=prep.write_masks,
            prefetch_degree=config.prefetch_degree,
            num_data_chunks=prep.num_data_chunks,
        )
        best = min(best, time.perf_counter() - t0)
    return best, sim


def _run_cell(
    workload: str, version: str, prefetch: int, writeback: bool,
    repeats: int, scale: int,
) -> dict[str, Any]:
    import dataclasses

    config = dataclasses.replace(
        scaled_config(scale), prefetch_degree=prefetch, writeback=writeback
    )
    prep = prepare_experiment(get_workload(workload), config, version)
    reference = resolve_engine("reference")
    fast = resolve_engine("fast")
    ref_s, ref_sim = _time_engine(reference, prep, config, repeats)
    fast_s, fast_sim = _time_engine(fast, prep, config, repeats)
    ref_digest, fast_digest = _digest(ref_sim), _digest(fast_sim)
    if ref_digest != fast_digest:
        raise SystemExit(
            f"ENGINE DIVERGENCE on {workload}/{version} pf={prefetch} "
            f"wb={writeback}: {ref_digest[:12]} != {fast_digest[:12]}"
        )
    return {
        "id": f"{workload}/{version}/pf{prefetch}/{'wb' if writeback else 'wt'}",
        "requests": sum(len(s) for s in prep.streams.values()),
        "reference_s": round(ref_s, 6),
        "fast_s": round(fast_s, 6),
        "speedup": round(ref_s / fast_s, 2) if fast_s else float("inf"),
        "digest": ref_digest,
    }


def run_matrix(repeats: int = 5, scale: int = SCALE) -> dict[str, Any]:
    rows = [
        _run_cell(w, v, pf, wb, repeats, scale) for w, v, pf, wb in CASES
    ]
    speedups = [r["speedup"] for r in rows]
    geomean = 1.0
    for s in speedups:
        geomean *= s
    geomean **= 1.0 / len(speedups)
    return gate.record(
        "repro-bench-engine",
        GATE,
        rows,
        scale=scale,
        repeats=repeats,
        speedup=round(geomean, 2),
    )


# -- pytest entry -------------------------------------------------------------------


def test_engine_speedup_matrix(benchmark, report_sink):
    from repro.experiments.report import ExperimentReport

    doc = benchmark.pedantic(lambda: run_matrix(repeats=3), rounds=1, iterations=1)
    table = [
        [
            row["id"],
            f"{row['reference_s'] * 1e3:.2f}",
            f"{row['fast_s'] * 1e3:.2f}",
            f"{row['speedup']:.1f}x",
        ]
        for row in doc["rows"]
    ]
    # Digest equality is enforced inside every cell; here assert the
    # speedup the subsystem exists for actually materialises.
    assert max(row["speedup"] for row in doc["rows"]) >= 5.0
    report_sink(
        ExperimentReport(
            "bench engine",
            f"fast vs reference engine (scale {SCALE}, "
            f"geomean {doc['speedup']:.1f}x)",
            ["cell", "ref ms", "fast ms", "speedup"],
            table,
        )
    )


# -- standalone entry ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o",
        "--output",
        default="BENCH_engine.json",
        help="where to write the benchmark record",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="timing repeats per engine per cell (best-of, default 5)",
    )
    args = parser.parse_args(argv)
    doc = run_matrix(repeats=args.repeats)
    gate.write_record(args.output, doc)
    for row in doc["rows"]:
        print(
            f"{row['id']:<28} ref {row['reference_s'] * 1e3:8.2f}ms  "
            f"fast {row['fast_s'] * 1e3:7.2f}ms  {row['speedup']:5.1f}x"
        )
    speedups = [row["speedup"] for row in doc["rows"]]
    print(
        f"geomean {doc['speedup']:.1f}x, "
        f"min {min(speedups):.1f}x, max {max(speedups):.1f}x"
    )
    print(f"wrote {args.output} ({len(doc['rows'])} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
