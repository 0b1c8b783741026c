"""One set-up sample: import the program, set a workload up, tear it down.

Run by the benchmark in a fresh interpreter per sample::

    python3 perfbench/setup_probe.py <workload> <seed> <scratch dir>

Prints the seconds from before the first program import to the end of
the workload's set-up (teardown excluded), then the median seconds of
the host-speed kernel run right after, in this process, so that the
sample is scaled by the speed it ran at.
"""

from __future__ import annotations

import pathlib
import statistics
import sys
import time

START = time.perf_counter()
ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.hostspeed import kernel_s  # noqa: E402
from perfbench.workloads import SETUPS, Context  # noqa: E402

KERNEL_RUNS = 9


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv
    setup, teardown = SETUPS[workload]
    state = setup(Context(seed=int(seed), seconds=0.0, workdir=pathlib.Path(workdir)))
    elapsed = time.perf_counter() - START
    kernel = statistics.median(kernel_s() for _ in range(KERNEL_RUNS))
    teardown(state)
    print(elapsed, kernel)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
