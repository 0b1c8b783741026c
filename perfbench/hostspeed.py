"""Host-speed calibration, interleaved with a timed loop.

The benchmark runs on a few cores of a shared host.  Its neighbours'
load makes the host's speed swing: a fixed loop runs up to ~1.6x slower
for stretches of 3-30 s, so two runs of the same code can read 25 %
apart in wall time.  To keep that out of the numbers, the loop times a
short fixed kernel (benchmark code, never the program) before each
request (before each chunk of a campaign pass), and once more after
the last one.  Each stretch of loop time
between two kernel runs is then scaled by ``CAL_REF_S`` over the
kernel's median time around that stretch, so every timing reads as it
would at the reference speed, the speed at which the kernel takes
``CAL_REF_S``.  The kernel's own time counts nowhere.  The unscaled
timings stay in the run record.
"""

from __future__ import annotations

import statistics
import time
from collections import OrderedDict

import numpy

#: The kernel's time at the reference speed; near its median time on
#: the 2-core x86_64 host of the baseline (python 3.11, numpy 2.4).
CAL_REF_S = 0.003
#: Kernel runs on each side of a stretch that set its speed.
WINDOW = 2
#: float64 elements the kernel streams through: 2 MiB, past a core's L2.
STREAM_ELEMS = 1 << 18

_buffers: list[numpy.ndarray] = []


def kernel() -> int:
    """Fixed work like the program's: LRU dictionary updates and array streaming.

    The interpreter-bound half tracks the simulator's reference loop;
    the memory-bound half tracks the mapper, whose array passes slow
    less than interpreted code when the host is loaded.
    """
    lru: OrderedDict[int, int] = OrderedDict()
    for i in range(2000):
        k = (i * 7919) % 3001
        if k in lru:
            lru.move_to_end(k)
        else:
            lru[k] = i
            if len(lru) > 1000:
                lru.popitem(last=False)
    if not _buffers:  # allocated on first use, so that importing costs nothing
        _buffers.append(numpy.arange(STREAM_ELEMS, dtype=numpy.float64))
        _buffers.append(numpy.empty_like(_buffers[0]))
    source, out = _buffers
    for _ in range(3):
        numpy.multiply(source, 1.0001, out=out)
        numpy.sqrt(out, out=out)
    return len(lru) + int(out[0])


def kernel_s() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class HostClock:
    """Kernel times taken between the stretches of a timed loop."""

    def __init__(self, samples: list[float] | None = None) -> None:
        self.samples: list[float] = list(samples or [])

    def mark(self, runs: int = 1) -> float:
        """Time ``runs`` kernels as one sample (their median); returns the time spent."""
        start = time.perf_counter()
        self.samples.append(statistics.median(kernel_s() for _ in range(runs)))
        return time.perf_counter() - start

    def factors(self) -> list[float]:
        """The scale of each stretch between consecutive marks.

        A stretch's speed is the median of the marks that bound it and
        of ``WINDOW`` more on each side.
        """
        return [
            CAL_REF_S
            / statistics.median(self.samples[max(0, i - WINDOW) : i + 2 + WINDOW])
            for i in range(len(self.samples) - 1)
        ]

    def record(self) -> dict[str, float]:
        return {
            "kernel_ms.p50": 1000.0 * statistics.median(self.samples),
            "kernel_ms.min": 1000.0 * min(self.samples),
            "kernel_ms.max": 1000.0 * max(self.samples),
            "marks": len(self.samples),
        }


def scaled_wall(marks_s: list[float], factors: list[float]) -> float:
    """Loop time from the first mark to the last, each stretch scaled."""
    return sum((end - begin) * f for begin, end, f in zip(marks_s, marks_s[1:], factors))

