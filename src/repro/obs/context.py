"""Request ids and span contexts — the correlation fabric of ``repro.obs``.

Every serve request and traced CLI invocation gets a **request id**
(the trace id of its span tree); every open span has a **span context**
(trace id + span id) that children attach to.  The current context
rides a :mod:`contextvars` variable, so it follows ``await`` chains and
nested ``with`` blocks for free; crossing an explicit boundary — a
worker thread, a process-pool payload, an HTTP hop — is done by
shipping ``SpanContext.as_dict()`` and reattaching on the far side
(see :func:`repro.exec.executor.run_payload` and the
``X-Repro-Request-Id`` header in :mod:`repro.serve.server`).

Stdlib-only and dependency-free within the package, so the profiler can
import the tracer without cycling through telemetry.
"""

from __future__ import annotations

import os
import re
import time
from contextvars import ContextVar
from dataclasses import dataclass

__all__ = [
    "REQUEST_ID_HEADER",
    "SpanContext",
    "current_context",
    "new_request_id",
    "new_span_id",
    "sanitize_request_id",
]

#: The correlation header every serve response carries (and every
#: request may supply, for cross-system tracing).
REQUEST_ID_HEADER = "X-Repro-Request-Id"

#: Accepted client-supplied request ids: printable, no separators that
#: could smuggle header or JSON structure, bounded length.
_ID_RE = re.compile(r"^[A-Za-z0-9._:-]{1,128}$")


@dataclass(frozen=True)
class SpanContext:
    """The (trace id, span id) pair children and remote spans attach to."""

    trace_id: str
    span_id: str

    def as_dict(self) -> dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}


def new_request_id() -> str:
    """A fresh request id: millisecond-sortable prefix + random suffix."""
    return f"req-{int(time.time() * 1000):013x}-{os.urandom(6).hex()}"


def new_span_id() -> str:
    """A fresh 64-bit random span id (unique across pool workers)."""
    return os.urandom(8).hex()


def sanitize_request_id(raw: str | None) -> str:
    """A client-supplied request id, or ``""`` when unusable.

    Callers fall back to :func:`new_request_id` on ``""`` — a malformed
    id is replaced, never echoed.
    """
    if not raw or not _ID_RE.match(raw):
        return ""
    return raw


#: The currently open span, if any.  Context-local: follows tasks and
#: nested scopes automatically; explicitly reattached across threads
#: and processes.
_CURRENT: ContextVar[SpanContext | None] = ContextVar(
    "repro_obs_current_span", default=None
)


def current_context() -> SpanContext | None:
    """The context of the innermost open span (None outside any span)."""
    return _CURRENT.get()
