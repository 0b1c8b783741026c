"""repro.serve — async mapping-as-a-service over the exec runtime.

The serving layer the ROADMAP's "heavy traffic" north star asks for:
a long-lived, stdlib-only asyncio HTTP service that accepts JSON
mapping/experiment requests and answers them through the
:mod:`repro.exec` backend — the compiler-directed mapping moved to
run time, the shape *Cache-Conscious Run-time Decomposition of Data
Parallel Computations* argues for.

* :mod:`~repro.serve.protocol` — versioned request/response/error
  documents sharing the exec config serialisation; byte-deterministic
  response bodies (per-request facts ride HTTP headers);
* :mod:`~repro.serve.coalesce` — in-flight deduplication keyed on
  :class:`~repro.exec.keys.ExperimentKey` plus micro-batching of
  whatever is queued when the batcher comes round (up to ``max_batch``
  tasks, no wait window) through the batch path's miss path
  (:func:`~repro.exec.plan.run_misses`), store-first so warm keys never
  simulate;
* :mod:`~repro.serve.server` — bounded admission with explicit 429 +
  ``Retry-After`` backpressure, per-request timeouts, graceful
  SIGINT/SIGTERM drain, and ``/healthz`` ``/statusz`` ``/metrics``;
* :mod:`~repro.serve.client` — the blocking client (CLI, tests,
  benchmarks, CI smoke).

Typical wiring (what ``repro serve --workers 4 --cache DIR`` does)::

    from repro.exec import ExperimentExecutor, ResultStore
    from repro.serve import MappingServer
    from repro.telemetry import MetricsRegistry

    server = MappingServer(
        port=8080,
        executor=ExperimentExecutor(workers=4),
        store=ResultStore("serve-cache"),
        registry=MetricsRegistry(),
    )
    # The server holds the executor's block while it runs: its four
    # workers fork at the first batch that needs them and are joined
    # when the drain ends.
    raise SystemExit(server.serve_forever())   # exits 0 after a drain
"""

from repro.serve.client import ServeClient, ServeError, ServeResponse
from repro.serve.coalesce import Coalescer, Submitted
from repro.serve.http import SHARD_HEADER, AsyncHttpServer, HttpRequest
from repro.serve.protocol import (
    ERROR_STATUS,
    MAX_BATCH_ITEMS,
    PROTOCOL_VERSION,
    MappingRequest,
    ProtocolError,
    apply_default_scale,
    batch_request_doc,
    batch_response_doc,
    encode_doc,
    error_doc,
    parse_batch_request,
    parse_request,
    request_doc,
    response_doc,
)
from repro.serve.server import SERVE_COUNTERS, MappingServer

__all__ = [
    "PROTOCOL_VERSION",
    "ERROR_STATUS",
    "MAX_BATCH_ITEMS",
    "ProtocolError",
    "MappingRequest",
    "apply_default_scale",
    "parse_request",
    "parse_batch_request",
    "request_doc",
    "batch_request_doc",
    "batch_response_doc",
    "response_doc",
    "error_doc",
    "encode_doc",
    "Coalescer",
    "Submitted",
    "AsyncHttpServer",
    "HttpRequest",
    "SHARD_HEADER",
    "MappingServer",
    "SERVE_COUNTERS",
    "ServeClient",
    "ServeError",
    "ServeResponse",
]
