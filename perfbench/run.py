"""Repository benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-map --seed 1 --seconds 15 --trace 0

``--trace 0`` loads the real serving/campaign stack and reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` replays the
same inputs layer by layer and reports the per-layer metrics, with the
per-layer table on standard error.  The second-to-last line of
standard output is the run record (host, seed, sample counts); the
last line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run exits 1 when an output is wrong (a digest mismatch), after
printing the result with ``"correct": false``, and 2 when the checkout
has no ``src/repro`` to benchmark.  Scratch files live under
``.perfbench/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: One BLAS thread per process.  The host has two cores shared by the
#: client, router, worker and pool processes; idle BLAS threads spinning
#: for work took CPU from them and made run-to-run times swing.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("cold-map", "cold-policy", "campaign-sweep")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ.update(BLAS_ENV)  # before numpy loads; inherited by child processes

    import numpy

    from perfbench.workloads import WORKLOADS, Context

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ctx = Context(seed=args.seed, seconds=args.seconds, workdir=workdir)
        outcome = WORKLOADS[args.workload][args.trace](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    correct = not outcome.problems
    if correct and set(outcome.metrics) != set(units):
        print(
            f"perfbench: metrics {sorted(set(outcome.metrics) ^ set(units))} "
            "differ from BENCHMARK.json",
            file=sys.stderr,
        )
        return 3
    bad = [n for n, v in outcome.metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"perfbench: non-finite metrics {bad}", file=sys.stderr)
        return 3

    if args.trace:
        print(outcome.record.pop("text"), file=sys.stderr)
    for problem in outcome.problems:
        print(f"perfbench: WRONG OUTPUT: {problem}", file=sys.stderr)
    record = {
        "record": "perfbench-run",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "env": BLAS_ENV,
        },
        **outcome.record,
    }
    print(json.dumps(record, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name], "unit": units[name]}
                    for name in units
                    if name in outcome.metrics
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
