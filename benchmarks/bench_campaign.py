"""Benchmark for the campaign runner: the smoke campaign, cell by cell.

Expands ``examples/campaign_smoke.json`` (2 workloads x 2 versions x
2 engines plus one pairing, minus one exclusion = 7 cells at 1/16
scale), simulates each cell individually to get an honest per-cell
wall time, then replays the whole campaign against the now-warm store
to pin the manifest and report digests.

Two entry points:

* ``pytest benchmarks/bench_campaign.py --benchmark-only`` — the usual
  table via ``report_sink``;
* ``python benchmarks/bench_campaign.py -o BENCH_campaign.json`` —
  standalone, writing the benchmark record the CI perf-gate job checks
  with ``gate.py`` against the pinned copy.

The record has one row per cell (id: the cell label) plus the rows
``report`` and ``manifest``, which carry the campaign's report and
manifest digests and no time.  Every digest is reproducible
bit-for-bit across hosts and worker counts; ``gate.py`` fails on any
drift.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Any

import gate
from repro.campaign import expand_campaign, load_campaign_file, run_campaign
from repro.exec import MemoryStore
from repro.exec.plan import execute_plan
from repro.scenario.runner import result_digest

SPEC_PATH = (
    pathlib.Path(__file__).resolve().parents[1]
    / "examples"
    / "campaign_smoke.json"
)

#: Perf-gate bounds: only a cell over 1 s *and* 10x its pinned time fails.
GATE = {"max_slowdown": 10, "floor_s": 1.0}


def run_bench() -> dict[str, Any]:
    spec = load_campaign_file(SPEC_PATH)
    plan = expand_campaign(spec)
    store = MemoryStore()
    task_by_digest = {t.key.digest: t for t in plan.plan.tasks}
    rows = []
    for cell in plan.cells:
        task = task_by_digest[cell.key_digest]
        t0 = time.perf_counter()
        results = execute_plan([task], store=store)
        seconds = time.perf_counter() - t0
        rows.append(
            {
                "id": cell.label,
                "key": cell.key_digest,
                "digest": result_digest(results[cell.key_digest]),
                "seconds": round(seconds, 3),
            }
        )
    # Full campaign over the warm store: zero re-simulation, and the
    # manifest/report identity the CI smoke job pins.
    run = run_campaign(spec, store=store)
    rows.append({"id": "report", "digest": run.report["digest"]})
    rows.append({"id": "manifest", "digest": run.manifest["digest"]})
    return gate.record(
        "repro-bench-campaign",
        GATE,
        rows,
        spec="examples/campaign_smoke.json",
        campaign=spec.name,
    )


# -- pytest entry -------------------------------------------------------------------


def test_campaign_smoke_bench(benchmark, report_sink):
    from repro.experiments.report import ExperimentReport

    doc = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    # The same spec must always reproduce the same identity — the
    # property the CI campaign-smoke job pins one value of.
    again = run_bench()
    assert [r["digest"] for r in again["rows"]] == [
        r["digest"] for r in doc["rows"]
    ]
    cells = [r for r in doc["rows"] if "seconds" in r]
    table = [[r["id"], r["digest"][:12], f"{r['seconds']:.2f}"] for r in cells]
    report_sink(
        ExperimentReport(
            "bench campaign",
            f"smoke campaign, per-cell ({len(cells)} cells)",
            ["cell", "digest", "s"],
            table,
        )
    )


# -- standalone entry ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o",
        "--output",
        default="BENCH_campaign.json",
        help="where to write the benchmark record",
    )
    args = parser.parse_args(argv)
    doc = run_bench()
    gate.write_record(args.output, doc)
    for row in doc["rows"]:
        seconds = f"  {row['seconds']:.2f}s" if "seconds" in row else ""
        print(f"{row['id']:<40} {row['digest'][:12]}{seconds}")
    print(f"wrote {args.output} ({len(doc['rows'])} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
