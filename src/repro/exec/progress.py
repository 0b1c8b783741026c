"""Live sweep progress: completed/total, throughput and ETA.

A :class:`ProgressReporter` is the ``progress`` callback
:func:`~repro.exec.plan.execute_plan` accepts.  On a TTY it redraws a
single carriage-return line per update; on a pipe (CI logs) it prints
at most one line every ``min_interval_s`` seconds plus a final
summary, so a thousand-cell campaign cannot flood a build log.

Throughput is measured over the reporter's own lifetime, which spans
store hits as well as simulations — a warm resume therefore reports
the (very high) effective rate, making "nothing re-simulated" visible
at a glance.
"""

from __future__ import annotations

import math
import sys
import time
from typing import TextIO

__all__ = ["ProgressReporter"]


def _fmt_eta(seconds: float) -> str:
    seconds = max(0, int(round(seconds)))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    return f"{seconds // 60}m{seconds % 60:02d}s"


class ProgressReporter:
    """Render ``done/total`` progress with cells/s and ETA.

    Call it as ``reporter(done, total)`` (the ``execute_plan``
    ``progress`` signature); call :meth:`close` when the sweep ends to
    terminate the TTY line / emit the non-TTY summary.  ``label`` names
    the unit ("cells", "tasks").
    """

    def __init__(
        self,
        label: str = "cells",
        stream: TextIO | None = None,
        min_interval_s: float = 2.0,
    ):
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self._start = time.monotonic()
        # No emission yet: -inf, not 0.0 — the monotonic clock's origin is
        # arbitrary (often boot), so 0.0 can lie within one interval of now.
        self._last_emit = -math.inf
        self._done = 0
        self._total = 0
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._dirty = False

    def __call__(self, done: int, total: int) -> None:
        self._done, self._total = done, total
        self._dirty = True
        now = time.monotonic()
        interval = 0.1 if self._tty else self.min_interval_s
        if done < total and now - self._last_emit < interval:
            return
        self._emit(now)

    def _line(self, now: float) -> str:
        elapsed = now - self._start
        rate = self._done / elapsed if elapsed > 0 else 0.0
        remaining = self._total - self._done
        eta = _fmt_eta(remaining / rate) if rate > 0 else "?"
        return (
            f"{self.label}: {self._done}/{self._total} "
            f"({rate:.1f}/s, eta {eta})"
        )

    def _emit(self, now: float) -> None:
        self._last_emit = now
        self._dirty = False
        if self._tty:
            self.stream.write("\r\x1b[K" + self._line(now))
            if self._done >= self._total:
                self.stream.write("\n")
        else:
            self.stream.write(self._line(now) + "\n")
        self.stream.flush()

    def close(self) -> None:
        """Flush the final state (idempotent)."""
        if self._dirty:
            self._emit(time.monotonic())
        elif self._tty and self._done < self._total:
            self.stream.write("\n")
            self.stream.flush()

    @property
    def elapsed_s(self) -> float:
        return time.monotonic() - self._start
