"""Causal span tracing: a bounded ring of finished spans + JSONL log.

A :class:`Span` is one timed operation with causal identity — request
(trace) id, its own span id, and its parent's — so finished spans
reassemble into per-request trees (:func:`build_trees`) covering
admission → queueing → pool dispatch → mapper → simulate → store I/O.

The :class:`Tracer` mirrors the metrics registry's activation pattern:
the process-wide default is :data:`NULL_TRACER` (``enabled = False``,
every operation a no-op), :func:`use_tracer` scopes a live tracer, and
:func:`thread_tracer` overrides per-thread so a worker's private
collection tracer never hijacks what the serve event loop sees.
Disabled cost is one global lookup and an attribute check per span
site — spans wrap pipeline stages, never per-access work.

Finished spans land in a bounded ring (``capacity`` newest survive;
``dropped`` counts the overflow) and, when ``log_path`` is set, as
JSONL lines an external tail or ``repro obs`` can consume while the
process runs.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.obs.context import (
    _CURRENT,
    SpanContext,
    new_request_id,
    new_span_id,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "span",
    "build_trees",
    "get_tracer",
    "use_tracer",
    "thread_tracer",
]


@dataclass
class Span:
    """One finished timed operation with causal identity."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    #: Wall-clock start (epoch seconds) — comparable across processes.
    start_unix: float
    #: Monotonic duration (perf_counter delta).
    elapsed_s: float
    #: Process that executed the operation (pool workers differ).
    pid: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "elapsed_s": self.elapsed_s,
            "pid": self.pid,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @staticmethod
    def from_dict(doc: Mapping[str, Any]) -> "Span":
        return Span(
            name=str(doc["name"]),
            trace_id=str(doc["trace_id"]),
            span_id=str(doc["span_id"]),
            parent_id=doc.get("parent_id"),
            start_unix=float(doc.get("start_unix", 0.0)),
            elapsed_s=float(doc.get("elapsed_s", 0.0)),
            pid=int(doc.get("pid", 0)),
            attrs=dict(doc.get("attrs") or {}),
        )


class Tracer:
    """Collects finished spans into a bounded ring and optional JSONL log.

    Thread-safe: spans finish on the serve event loop, backend worker
    threads and (after repatriation) batch merges concurrently.
    """

    enabled = True

    def __init__(self, capacity: int = 4096, log_path: str | None = None):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.log_path = str(log_path) if log_path else ""
        self.dropped = 0
        self._ring: deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._log = open(self.log_path, "a") if self.log_path else None

    def record(self, span_: Span) -> None:
        """Append one finished span (evicting the oldest past capacity)."""
        with self._lock:
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(span_)
            if self._log is not None:
                self._log.write(
                    json.dumps(span_.as_dict(), sort_keys=True) + "\n"
                )
                self._log.flush()

    def ingest(self, span_dicts: Iterable[Mapping[str, Any]]) -> int:
        """Fold repatriated worker spans (``as_dict`` documents) in.

        The piggyback path: pool workers return their span list next to
        the metrics snapshot, and the parent ingests both — a parallel
        run's trace carries the same spans a serial run's would.
        """
        n = 0
        for doc in span_dicts:
            self.record(Span.from_dict(doc))
            n += 1
        return n

    def spans(self) -> list[Span]:
        """Ring contents, oldest first."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self.dropped = 0

    def close(self) -> None:
        """Close the JSONL log (the ring stays readable)."""
        with self._lock:
            if self._log is not None:
                self._log.close()
                self._log = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __repr__(self) -> str:
        return (
            f"Tracer({len(self)}/{self.capacity} spans"
            f"{', log=' + self.log_path if self.log_path else ''})"
        )


class NullTracer:
    """The disabled tracer: every operation is a no-op."""

    enabled = False
    capacity = 0
    dropped = 0
    log_path = ""

    def record(self, span_: Span) -> None:
        pass

    def ingest(self, span_dicts: Iterable[Mapping[str, Any]]) -> int:
        return 0

    def spans(self) -> list[Span]:
        return []

    def clear(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullTracer()"


#: The process-wide disabled tracer (the default active tracer).
NULL_TRACER = NullTracer()

_active: Tracer | NullTracer = NULL_TRACER

#: Per-thread override, so run_payload's private collection tracer in a
#: serve backend thread never shadows the event loop's live tracer.
_LOCAL = threading.local()


def get_tracer() -> Tracer | NullTracer:
    """The active tracer span sites record into."""
    override = getattr(_LOCAL, "tracer", None)
    return _active if override is None else override


class use_tracer:
    """Scope ``tracer`` as the active one, restoring the previous on exit."""

    def __init__(self, tracer: Tracer | NullTracer):
        self._tracer = tracer
        self._previous: Tracer | NullTracer | None = None

    def __enter__(self) -> Tracer | NullTracer:
        global _active
        self._previous = _active
        _active = self._tracer
        return self._tracer

    def __exit__(self, *exc) -> None:
        global _active
        assert self._previous is not None
        _active = self._previous


class thread_tracer:
    """Scope ``tracer`` as active *for the current thread only*."""

    def __init__(self, tracer: Tracer | NullTracer):
        self._tracer = tracer
        self._previous: Tracer | NullTracer | None = None

    def __enter__(self) -> Tracer | NullTracer:
        self._previous = getattr(_LOCAL, "tracer", None)
        _LOCAL.tracer = self._tracer
        return self._tracer

    def __exit__(self, *exc) -> None:
        _LOCAL.tracer = self._previous


class span:
    """Open a span; context manager, mirroring :class:`telemetry.phase`.

    Identity resolution, in order:

    * explicit ``trace_id``/``parent_id`` keywords — cross-boundary
      reattachment (a worker resuming a request's tree, a batch span
      parented onto its leader request);
    * the innermost open span in this context — ordinary nesting;
    * neither — a fresh root with a new request id.

    Remaining keywords become span attributes (JSON-safe values only);
    :meth:`set` adds more while the span is open (e.g. an outcome known
    only at the end).  When the active tracer is disabled the whole
    thing is two no-op calls.
    """

    __slots__ = ("name", "_attrs", "_tracer", "_span", "_token", "_start")

    def __init__(
        self,
        name: str,
        *,
        trace_id: str | None = None,
        parent_id: str | None = None,
        **attrs,
    ):
        self.name = name
        self._attrs = attrs
        self._attrs["__trace_id"] = trace_id
        self._attrs["__parent_id"] = parent_id
        self._tracer: Tracer | None = None
        self._span: Span | None = None
        self._token = None
        self._start = 0.0

    def __enter__(self) -> "span":
        tracer = get_tracer()
        if not tracer.enabled:
            return self
        trace_id = self._attrs.pop("__trace_id")
        parent_id = self._attrs.pop("__parent_id")
        if trace_id is None:
            current = _CURRENT.get()
            if current is not None:
                trace_id = current.trace_id
                if parent_id is None:
                    parent_id = current.span_id
            else:
                trace_id = new_request_id()
        self._tracer = tracer  # type: ignore[assignment]
        self._span = Span(
            name=self.name,
            trace_id=trace_id,
            span_id=new_span_id(),
            parent_id=parent_id,
            start_unix=time.time(),
            elapsed_s=0.0,
            pid=os.getpid(),
            attrs=self._attrs,
        )
        self._token = _CURRENT.set(SpanContext(trace_id, self._span.span_id))
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._span is None or self._tracer is None:
            return
        self._span.elapsed_s = time.perf_counter() - self._start
        if exc_type is not None and "error" not in self._span.attrs:
            self._span.attrs["error"] = exc_type.__name__
        _CURRENT.reset(self._token)
        self._tracer.record(self._span)
        self._span = None
        self._tracer = None
        self._token = None

    def set(self, **attrs) -> None:
        """Attach attributes to the open span (no-op when not tracing)."""
        if self._span is not None:
            self._span.attrs.update(attrs)

    @property
    def context(self) -> SpanContext | None:
        """The open span's context (None when tracing is disabled)."""
        if self._span is None:
            return None
        return SpanContext(self._span.trace_id, self._span.span_id)


def build_trees(spans: Iterable[Span]) -> list[dict[str, Any]]:
    """Reassemble finished spans into trees, roots sorted by start time.

    A node is ``{"span": Span, "children": [node, ...]}``.  Spans whose
    parent is absent (evicted from the ring, or living in another
    process's trace) become roots — the forest stays useful under ring
    eviction.  Children sort by start time.
    """
    spans = list(spans)
    nodes: dict[str, dict[str, Any]] = {
        s.span_id: {"span": s, "children": []} for s in spans
    }
    roots: list[dict[str, Any]] = []
    for s in spans:
        node = nodes[s.span_id]
        parent = nodes.get(s.parent_id) if s.parent_id else None
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda n: n["span"].start_unix)
    roots.sort(key=lambda n: n["span"].start_unix)
    return roots
