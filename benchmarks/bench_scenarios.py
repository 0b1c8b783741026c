"""Benchmark for the scenario layer: generators × replacement policies.

Runs the three stock stochastic scenarios (``zipf-hot``,
``zipf-uniform``, ``onoff-bursty``) across a small per-level policy
matrix on the eighth-scale topology, reporting per-level hit rates,
the pinnable result digest and the simulation wall time for each cell.

Two entry points:

* ``pytest benchmarks/bench_scenarios.py --benchmark-only`` — the usual
  table via ``report_sink``;
* ``python benchmarks/bench_scenarios.py -o BENCH_scenarios.json`` —
  standalone, writing the benchmark record (one row per cell, id
  ``zipf-hot/lru-arc-lru`` or ``zipf-hot/default``) that the CI
  perf-gate job checks with ``gate.py`` against the pinned copy.

Everything is seeded through the config, so every cell's ``digest`` is
reproducible bit-for-bit across hosts and worker counts.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import Any

import gate
from repro.experiments.config import scaled_config
from repro.scenario.registry import get_scenario
from repro.scenario.runner import result_digest, run_scenario, scenario_key

SCENARIOS = ("zipf-hot", "zipf-uniform", "onoff-bursty")

#: Per-level policy matrices (L1, L2, L3) — None means the config default
#: (uniform LRU, the paper's §5.1 setting); then ARC at L2, RRIP at L2/L3.
POLICY_MATRICES: tuple[tuple[str, str, str] | None, ...] = (
    None,
    ("lru", "arc", "lru"),
    ("lru", "rrip", "rrip"),
)

SCALE = 8

#: Perf-gate bounds: only a cell over 1 s *and* 10x its pinned time fails.
GATE = {"max_slowdown": 10, "floor_s": 1.0}


def _run_cell(
    scenario_name: str, policies: tuple[str, str, str] | None, config
) -> dict[str, Any]:
    spec = get_scenario(scenario_name)
    if policies is not None:
        spec = dataclasses.replace(spec, policies=policies)
    key = scenario_key(spec, config)
    t0 = time.perf_counter()
    result = run_scenario(spec, config)
    seconds = time.perf_counter() - t0
    levels = {
        level: {
            "accesses": stats.accesses,
            "hits": stats.hits,
            "hit_rate": round(stats.hits / stats.accesses, 4)
            if stats.accesses
            else 0.0,
        }
        for level, stats in sorted(result.sim.level_stats.items())
    }
    return {
        "id": f"{scenario_name}/{'-'.join(policies) if policies else 'default'}",
        "key": key.digest,
        "digest": result_digest(result),
        "levels": levels,
        "seconds": round(seconds, 3),
    }


def run_matrix(config=None) -> dict[str, Any]:
    config = config if config is not None else scaled_config(SCALE)
    rows = [
        _run_cell(s, policies, config)
        for s in SCENARIOS
        for policies in POLICY_MATRICES
    ]
    return gate.record(
        "repro-bench-scenarios",
        GATE,
        rows,
        scale=SCALE,
        scenarios=list(SCENARIOS),
    )


# -- pytest entry -------------------------------------------------------------------


def test_scenario_policy_matrix(benchmark, small_config, report_sink):
    from repro.experiments.report import ExperimentReport

    doc = benchmark.pedantic(
        lambda: run_matrix(small_config), rounds=1, iterations=1
    )
    table = []
    for row in doc["rows"]:
        cells = [row["id"]]
        for level in ("L1", "L2", "L3"):
            cells.append(f"{row['levels'][level]['hit_rate']:.3f}")
        cells.append(f"{row['seconds']:.2f}")
        table.append(cells)
    # The same (scenario, policies, seed) cell must always reproduce the
    # same digest — the property the CI smoke job pins one value of.
    again = run_matrix(small_config)
    assert [r["digest"] for r in again["rows"]] == [
        r["digest"] for r in doc["rows"]
    ]
    report_sink(
        ExperimentReport(
            "bench scenarios",
            f"generator scenarios x policy matrices (scale {SCALE})",
            ["cell", "L1 hit", "L2 hit", "L3 hit", "s"],
            table,
        )
    )


# -- standalone entry ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o",
        "--output",
        default="BENCH_scenarios.json",
        help="where to write the benchmark record",
    )
    args = parser.parse_args(argv)
    doc = run_matrix()
    gate.write_record(args.output, doc)
    for row in doc["rows"]:
        hit = " ".join(
            f"{lvl}={row['levels'][lvl]['hit_rate']:.3f}"
            for lvl in sorted(row["levels"])
        )
        print(f"{row['id']:<28} {hit}  {row['seconds']:.2f}s")
    print(f"wrote {args.output} ({len(doc['rows'])} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
