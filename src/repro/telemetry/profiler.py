"""Phase timing: a nesting context-manager/decorator wall-clock timer.

``phase("mapping")`` times a pipeline stage.  Nested phases form paths
(``prepare/mapping/clustering``) that label the active registry's
``phase.duration_seconds`` histogram; that histogram is the only phase
record, and the run manifest's phase tree is derived from it
(:func:`repro.telemetry.manifest.build_manifest`).  Histograms merge
exactly across private and pool-worker registries, so phases a worker
runs reach the parent's tree too.

The timer itself always runs — callers like the mappers read
``.elapsed`` to populate ``mapping_time_s`` regardless of telemetry —
but the path stack and histogram recording only happen when the
active registry is enabled, so the disabled cost is two
``perf_counter`` calls per phase (phases wrap whole pipeline stages,
never per-access work).
"""

from __future__ import annotations

import functools
import time
from typing import Callable

from repro.obs.tracer import get_tracer
from repro.obs.tracer import span as _obs_span
from repro.telemetry.registry import MetricsRegistry, get_registry

__all__ = ["phase"]


class phase:
    """Time a pipeline stage; context manager and decorator.

    As a context manager::

        with phase("mapping") as p:
            ...
        mapping_time_s = p.elapsed

    As a decorator::

        @phase("simulate")
        def simulate(...): ...

    ``elapsed`` is always measured; the ``phase.duration_seconds``
    histogram, labelled with the ``/``-joined path of open phases, is
    only recorded when the active registry is enabled.  Each registry
    keeps its own stack of open phases, so a private collection
    registry starts at the root.  When the active *tracer*
    (:func:`repro.obs.tracer.get_tracer`) is enabled, every phase also
    opens a span — independently of the registry — so one traced
    request's tree reaches down into mapper/simulator phases with no
    extra instrumentation at the phase sites.
    """

    __slots__ = ("name", "elapsed", "_start", "_registry", "_span")

    def __init__(self, name: str):
        self.name = name
        self.elapsed = 0.0
        self._start = 0.0
        self._registry: MetricsRegistry | None = None
        self._span: _obs_span | None = None

    def __enter__(self) -> "phase":
        registry = get_registry()
        if registry.enabled:
            self._registry = registry
            registry.open_phases.append(self.name)
        if get_tracer().enabled:
            self._span = _obs_span(self.name)
            self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self._start
        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)
            self._span = None
        registry = self._registry
        if registry is not None:
            path = "/".join(registry.open_phases)
            registry.open_phases.pop()
            registry.histogram("phase.duration_seconds", phase=path).observe(
                self.elapsed
            )
            self._registry = None

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with phase(self.name):
                return fn(*args, **kwargs)

        return wrapper
