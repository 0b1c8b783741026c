"""The perf gate: a fresh benchmark record against its pinned baseline.

Every ``BENCH_*.json`` record has one shape::

    {"record": name, "host": {"cpu_count", "python", "numpy"},
     "gate": {bounds}, "rows": [{"id", "digest", "seconds"?, "speedup"?, ...}],
     "speedup"?: ..., ...}

Each bench script declares its bounds once, as its ``GATE`` constant,
and builds the record with :func:`record`.  The gate reads the bounds
from the *pinned* baseline, so a fresh run cannot loosen them, and runs
one check for every record:

* the ``record`` names match and the fresh ``gate`` block equals the
  baseline's (a bound changes only by re-pinning the baseline);
* the row ids match and every row digest is identical — a changed
  digest is a determinism break, never noise;
* ``max_slowdown``: a row fails only when its ``seconds`` exceed both
  ``floor_s`` and ``max_slowdown`` times the baseline's (CI hosts are
  noisy, so only order-of-magnitude regressions fail);
* ``min_row_speedup``: every fresh row's ``speedup`` reaches it;
* ``min_speedup``: the record's ``speedup`` reaches it, enforced only
  when ``host.cpu_count`` is at least ``min_cores`` (default 1) — a
  parallel speedup measured on fewer cores is noted, not failed.

Exit code 0 when everything holds, 1 with one line per problem::

    python benchmarks/bench_engine.py -o fresh-engine.json
    python benchmarks/gate.py BENCH_engine.json fresh-engine.json
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import platform
import sys
from typing import Any


def record(name: str, gate: dict, rows: list[dict], **fields: Any) -> dict:
    """A benchmark record measured on this host."""
    import numpy

    host = {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    return {
        "record": name,
        "host": host,
        "gate": dict(gate),
        "rows": rows,
        **fields,
    }


def write_record(path: str, doc: dict) -> None:
    """Write ``doc`` in the pinned files' format: indented, keys sorted."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def compare(baseline: dict, fresh: dict) -> tuple[list[str], list[str]]:
    """``(problems, notes)``: any problem fails the gate."""
    problems: list[str] = []
    notes: list[str] = []
    bounds = baseline["gate"]
    if fresh["record"] != baseline["record"]:
        problems.append(f"record {fresh['record']} is not {baseline['record']}")
    if fresh["gate"] != bounds:
        problems.append(f"gate {fresh['gate']} is not the pinned {bounds}")
    base_rows = {row["id"]: row for row in baseline["rows"]}
    fresh_rows = {row["id"]: row for row in fresh["rows"]}
    for row_id in sorted(base_rows.keys() - fresh_rows.keys()):
        problems.append(f"{row_id}: missing from the fresh run")
    for row_id in sorted(fresh_rows.keys() - base_rows.keys()):
        problems.append(f"{row_id}: not in the baseline (re-pin?)")
    for row_id in sorted(base_rows.keys() & fresh_rows.keys()):
        base, now = base_rows[row_id], fresh_rows[row_id]
        if now["digest"] != base["digest"]:
            problems.append(
                f"{row_id}: DIGEST CHANGED {base['digest'][:12]} -> "
                f"{now['digest'][:12]} (determinism failure)"
            )
        if "max_slowdown" in bounds and "seconds" in base:
            base_s, now_s = base["seconds"], now.get("seconds", math.inf)
            ratio, floor_s = bounds["max_slowdown"], bounds["floor_s"]
            if now_s > floor_s and now_s > base_s * ratio:
                problems.append(
                    f"{row_id}: {now_s:.3f}s vs baseline {base_s:.3f}s "
                    f"(> {ratio:g}x and > {floor_s:g}s floor)"
                )
        row_floor = bounds.get("min_row_speedup", 0.0)
        if now.get("speedup", 0.0) < row_floor:
            problems.append(
                f"{row_id}: speedup {now.get('speedup', 0.0):.2f}x under the "
                f"{row_floor:g}x row floor"
            )
    if "min_speedup" in bounds:
        speedup, cores = fresh.get("speedup", 0.0), fresh["host"]["cpu_count"]
        floor, min_cores = bounds["min_speedup"], bounds.get("min_cores", 1)
        if cores < min_cores:
            notes.append(
                f"speedup floor not enforced: {cores} core(s) < {min_cores} "
                f"(measured {speedup:.2f}x)"
            )
        elif speedup < floor:
            problems.append(
                f"speedup {speedup:.2f}x under the {floor:g}x floor "
                f"on {cores} core(s)"
            )
    return problems, notes


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: gate.py BASELINE FRESH", file=sys.stderr)
        return 2
    baseline, fresh = (json.loads(pathlib.Path(p).read_text()) for p in args)
    problems, notes = compare(baseline, fresh)
    for note in notes:
        print(f"note: {note}")
    name, count = baseline["record"], len(baseline["rows"])
    if problems:
        print(f"gate FAILED for {name} ({len(problems)} problem(s), {count} rows)")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"gate passed for {name}: {count} rows digest-identical, "
        f"within {baseline['gate']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
