"""The active execution context: which executor/store a run uses.

Figure/table modules call :func:`repro.experiments.harness.run_suite`
with just a config — they know nothing about pools or caches.  The
context is the seam that wires them up anyway: the CLI (or a test)
scopes an :class:`ExecutionContext` around a whole run, and every
``run_suite`` call inside resolves its executor and store from it.
Same module-global + context-manager pattern as the telemetry
registry (:mod:`repro.telemetry.registry`); single-threaded by design
like the rest of the pipeline — the parallelism lives in worker
*processes*, never threads.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["ExecutionContext", "get_execution", "use_execution"]


@dataclass
class ExecutionContext:
    """Executor + store pair scoped over a run (either may be None)."""

    executor: Optional[object] = None
    store: Optional[object] = None

    @property
    def active(self) -> bool:
        return self.executor is not None or self.store is not None


_DEFAULT = ExecutionContext()
_active: ExecutionContext = _DEFAULT


def get_execution() -> ExecutionContext:
    """The context ``run_suite`` resolves defaults from."""
    return _active


@contextmanager
def use_execution(
    executor=None, store=None
) -> Iterator[ExecutionContext]:
    """Scope an execution context, restoring the previous one on exit.

    The scope holds ``executor``'s ``with`` block, so every batch run
    inside it shares one process pool, joined when the scope ends.
    """
    global _active
    previous = _active
    _active = ExecutionContext(executor=executor, store=store)
    try:
        with executor if executor is not None else nullcontext():
            yield _active
    finally:
        _active = previous
