"""Simulation-engine selection: ``reference`` vs ``fast``.

Both engines are one function, :func:`repro.simulator.engine.simulate`,
which validates the inputs, resets the machine and builds the
:class:`SimulationResult` once, and differs only in its access core:

* ``reference`` — the per-access Python loop of
  :mod:`repro.simulator.engine`; the semantic ground truth and the only
  core that feeds trace recorders.
* ``fast`` — the level-by-level passes of :mod:`repro.simulator.fast`;
  bit-identical results (proven by the differential-equivalence suite)
  at several times less wall time.  Every registered policy runs on
  it; ``simulate`` takes the reference loop instead, for the whole run,
  only when a recorder is enabled or a level holds a look-alike policy
  subclass.

The selector threads through every :class:`SimulationResult` producer:
:func:`repro.simulator.runner.run_experiment`,
:func:`repro.trace.replay.replay`, the scenario runner, exec payloads
(:func:`repro.exec.executor.task_payload` pins the resolved name so
pool workers honour the parent's choice) and the CLI's ``--engine``
flag.  The process-wide default is ``fast``; ``set_default_engine``
changes it (the CLI does this once, before dispatch).  Callers take
``simulate`` bound to an engine name from :func:`resolve_engine` or go
through :func:`repro.simulator.runner.simulate_streams`.

This module is deliberately dependency-free — the simulator is imported
lazily on first resolution — so identity/fingerprint code can ask for
the default engine name without dragging the simulator in.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

__all__ = [
    "ENGINE_NAMES",
    "DEFAULT_ENGINE",
    "get_default_engine",
    "set_default_engine",
    "resolve_engine",
]

#: Every selectable engine, in documentation order.
ENGINE_NAMES = ("reference", "fast")

#: The process-wide default.  ``fast`` is safe as a default precisely
#: because the differential-equivalence suite pins it bit-identical to
#: ``reference`` (tests/simulator/test_engine_equivalence.py).
DEFAULT_ENGINE = "fast"

_default_engine = DEFAULT_ENGINE


def _check_name(name: str) -> str:
    if name not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {name!r}; choose from {ENGINE_NAMES}"
        )
    return name


def get_default_engine() -> str:
    """The engine name used when a caller does not pick one explicitly."""
    return _default_engine


def set_default_engine(name: str) -> None:
    """Set the process-wide default engine (validated)."""
    global _default_engine
    _default_engine = _check_name(name)


def resolve_engine(name: str | None = None) -> Callable:
    """``simulate`` bound to an engine name (or None = the default)."""
    from repro.simulator.engine import simulate

    return partial(simulate, engine=_check_name(name) if name else _default_engine)
