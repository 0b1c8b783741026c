"""``repro.obs`` — end-to-end span tracing, correlation, SLO reporting.

One request (serve or CLI) = one request id = one span tree: admission,
queueing, coalescing, pool dispatch, mapper, simulation and store I/O
each contribute a span, reassembled by :func:`build_trees`, exported to
Chrome-trace for flamegraphs, and aggregated by :func:`slo_report` into
per-stage p50/p95/p99.

The default tracer is :data:`NULL_TRACER` — tracing off costs one
lookup and an attribute check per span site.  :mod:`~repro.obs.context`
and :mod:`~repro.obs.tracer` are stdlib-only by design so the telemetry
profiler can import them without an import cycle.
"""

from repro.obs.context import (
    REQUEST_ID_HEADER,
    SpanContext,
    current_context,
    new_request_id,
    new_span_id,
    sanitize_request_id,
)
from repro.obs.export import (
    read_spans_jsonl,
    spans_to_chrome,
    write_chrome_spans,
    write_spans_jsonl,
)
from repro.obs.slo import render_slo, slo_report, stage_of
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    build_trees,
    get_tracer,
    span,
    thread_tracer,
    use_tracer,
)

__all__ = [
    "REQUEST_ID_HEADER",
    "SpanContext",
    "current_context",
    "new_request_id",
    "new_span_id",
    "sanitize_request_id",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "span",
    "build_trees",
    "get_tracer",
    "use_tracer",
    "thread_tracer",
    "spans_to_chrome",
    "write_chrome_spans",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "slo_report",
    "render_slo",
    "stage_of",
]
