"""The shared asyncio HTTP/1.1 core under every repro service front end.

:class:`AsyncHttpServer` is the plumbing half of what used to live
inside :class:`~repro.serve.server.MappingServer`, extracted so the
shard tier's front router (:mod:`repro.shard.router`) can speak exactly
the same dialect — same framing limits, same request-id propagation,
same typed-error envelope, same graceful drain — without duplicating
any of it.  A deliberately small HTTP/1.1 implementation over
``asyncio`` streams (stdlib-only; ``http.server`` is thread-per-request
and can't share event-loop state such as the coalescer or the router's
per-shard gates).

Subclasses declare their endpoints in ``ENDPOINTS`` (path →
``(method, handler name)``, extending the base table that holds
``/metricsz`` and ``/debugz``) plus optional ``_startup()`` /
``_shutdown()`` hooks; the base owns:

* dispatch from that table: an unknown path is a typed ``not_found``,
  a known path asked with the wrong method a ``method_not_allowed``;
* the server's lifetime: ``serve_forever`` installs ``registry`` and
  ``tracer`` (when given) as the process-wide active ones until the
  drain ends;
* request framing and limits (header count, body size) with typed
  :class:`~repro.serve.protocol.ProtocolError` rejections;
* the per-dispatch request id (client-supplied ids are echoed when
  well-formed, otherwise freshly generated) carried on *every*
  response via ``X-Repro-Request-Id`` — the correlation contract
  :mod:`repro.obs` builds trace trees on, including across the
  router → worker hop where the forwarded header stitches both
  processes' spans into one trace;
* ``serve.requests`` / ``serve.responses`` counters;
* graceful drain: SIGINT/SIGTERM stop the listener, in-flight
  dispatches finish (bounded by :data:`DRAIN_GRACE_S`), idle keep-alive
  connections are cut, and the process exits 0.

:func:`http_exchange` is the client half of the same dialect: the
router → worker hop.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
import time
from contextvars import ContextVar
from typing import Mapping

from repro.obs.context import (
    REQUEST_ID_HEADER,
    new_request_id,
    sanitize_request_id,
)
from repro.obs.tracer import use_tracer
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode_doc,
    error_doc,
)
from repro.telemetry import get_registry, use_registry
from repro.util.log import get_logger

__all__ = [
    "MAX_BODY_BYTES",
    "SHARD_HEADER",
    "AsyncHttpServer",
    "HttpRequest",
    "MalformedResponse",
    "current_request_id",
    "http_exchange",
]

_LOG = get_logger("serve.http")

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_HEADER_LINES = 100

#: How long a drain waits for in-flight dispatches (seconds).
DRAIN_GRACE_S = 30.0

#: Which shard (worker or the router itself) answered — the response
#: attribution header the ops satellites key off.
SHARD_HEADER = "X-Repro-Shard"

#: The request id of the HTTP request being dispatched on this task.
#: Context-local so interleaved keep-alive connections never cross ids;
#: read by ``_respond`` so *every* response — success, typed error, 429
#: backpressure, even a malformed-framing reply that never produced a
#: request object — carries a correlation header.
_REQUEST_ID: ContextVar[str] = ContextVar("repro_serve_request_id", default="")


def current_request_id() -> str:
    """The id of the request being dispatched ("" outside a dispatch)."""
    return _REQUEST_ID.get()


class MalformedResponse(OSError):
    """A peer's response had no parsable HTTP status line."""


async def http_exchange(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    headers: Mapping[str, str] | None = None,
) -> tuple[int, bytes, dict[str, str]]:
    """One HTTP/1.1 exchange over a fresh connection.

    Returns ``(status, body, headers)``, header names lower-cased.
    Connection errors propagate as :class:`OSError` and a response
    without a status line raises :class:`MalformedResponse`.  Callers
    bound the whole exchange with :func:`asyncio.wait_for`.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Content-Type: application/json\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii") + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()
    header_blob, _, rest = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    try:
        status = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise MalformedResponse(
            f"malformed response from {host}:{port}: {lines[:1]}"
        ) from None
    response_headers: dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        response_headers[name.strip().lower()] = value.strip()
    length = int(response_headers.get("content-length") or len(rest))
    return status, rest[:length], response_headers


class HttpRequest:
    __slots__ = ("method", "target", "headers", "body", "keep_alive")

    def __init__(self, method, target, headers, body, keep_alive):
        self.method = method
        self.target = target
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive


class AsyncHttpServer:
    """One event loop, one listener, graceful drain; endpoints are yours.

    ``serve_forever()`` blocks until a drain completes and returns the
    process exit code; tests (and the shard cluster) drive the same
    object from a thread via ``ready``/``port``/``request_shutdown()``.
    ``registry`` (a live :class:`~repro.telemetry.MetricsRegistry`) and
    ``tracer`` (a live :class:`~repro.obs.tracer.Tracer`) are installed
    process-wide for the server's lifetime; ``None`` leaves whatever is
    already active.  ``shard_id``, when set, stamps every response with
    the ``X-Repro-Shard`` attribution header.
    """

    #: path → (HTTP method, handler method name).  Subclasses extend it:
    #: ``ENDPOINTS = {**AsyncHttpServer.ENDPOINTS, "/x": ("GET", "_handle_x")}``.
    ENDPOINTS: Mapping[str, tuple[str, str]] = {
        "/metricsz": ("GET", "_handle_metricsz"),
        "/debugz": ("GET", "_handle_debugz"),
    }

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_id: str = "",
        registry=None,
        tracer=None,
    ):
        self.host = host
        self.port = port
        self.shard_id = shard_id
        self.registry = registry
        self.tracer = tracer
        #: Set once the listener is bound (``port`` is then the real one).
        self.ready = threading.Event()
        self._busy = 0
        self._draining = False
        self._cutting_idle = False
        self._started_monotonic: float | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle ----------------------------------------------------------------

    def serve_forever(self, install_signals: bool = True) -> int:
        """Run until shutdown; returns the process exit code (0 = drained)."""
        with contextlib.ExitStack() as stack:
            if self.registry is not None:
                stack.enter_context(use_registry(self.registry))
            if self.tracer is not None:
                stack.enter_context(use_tracer(self.tracer))
            return asyncio.run(self._serve(install_signals))

    def request_shutdown(self) -> None:
        """Begin a graceful drain; thread-safe, callable from anywhere."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def uptime_s(self) -> float:
        if self._started_monotonic is None:
            return 0.0  # not started: the clock has no origin yet
        return time.monotonic() - self._started_monotonic

    async def _startup(self) -> None:
        """Subclass hook: runs on the loop before the listener binds."""

    async def _shutdown(self) -> None:
        """Subclass hook: runs after connections drained, before exit."""

    def _describe(self) -> str:
        """One human line for the "serving on" log."""
        return type(self).__name__

    async def _serve(self, install_signals: bool) -> int:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._started_monotonic = time.monotonic()
        await self._startup()
        server = await asyncio.start_server(self._on_connection, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        if install_signals:
            self._install_signal_handlers()
        _LOG.info("serving on %s:%d (%s)", self.host, self.port, self._describe())
        self.ready.set()
        await self._stop.wait()
        self._draining = True
        _LOG.info("draining: %d dispatch(es) in flight", self._busy)
        server.close()
        await server.wait_closed()
        await self._drain_connections()
        await self._shutdown()
        _LOG.info("drained; exiting")
        return 0

    def _install_signal_handlers(self) -> None:
        assert self._loop is not None and self._stop is not None
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._loop.add_signal_handler(sig, self._stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main thread or platforms without loop signal
                # support: shutdown then comes via request_shutdown().
                return

    async def _drain_connections(self) -> None:
        """Let in-flight *requests* finish, then cut idle connections.

        Waiting on busy dispatches (bounded by :data:`DRAIN_GRACE_S`) is the
        drain guarantee; connections merely parked between keep-alive
        requests are cancelled immediately — they hold no work.
        """
        deadline = time.monotonic() + DRAIN_GRACE_S
        while self._busy and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        self._cutting_idle = True
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    # -- http plumbing ------------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ProtocolError as exc:
                    # Malformed framing: answer if we can, then hang up
                    # (the stream position is no longer trustworthy).
                    await self._respond_error(writer, exc, keep_alive=False)
                    break
                if request is None:
                    break
                self._busy += 1
                try:
                    await self._dispatch(request, writer)
                finally:
                    self._busy -= 1
                # Draining closes keep-alive sessions after the response
                # in flight — the client re-connects elsewhere.
                if not request.keep_alive or self._draining:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            if not self._cutting_idle:
                raise
            # Our own drain cut this connection: end the handler normally.
            # A cancelled handler task makes Python 3.11's stream callback
            # call ``task.exception()`` and log a CancelledError traceback.
        except Exception:  # noqa: BLE001 - one bad connection never kills the server
            _LOG.exception("connection handler failed")
        finally:
            self._connections.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(self, reader) -> HttpRequest | None:
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, http_version = line.decode("ascii").split()
        except (UnicodeDecodeError, ValueError):
            raise ProtocolError("bad_request", "malformed request line") from None
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ProtocolError("bad_request", "too many headers")
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            raise ProtocolError("bad_request", "bad Content-Length") from None
        if length < 0:
            raise ProtocolError("bad_request", "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                "payload_too_large", f"body exceeds {MAX_BODY_BYTES} bytes"
            )
        body = await reader.readexactly(length) if length else b""
        keep_alive = (
            headers.get("connection", "keep-alive").lower() != "close"
            and http_version.upper() != "HTTP/1.0"
        )
        return HttpRequest(method.upper(), target, headers, body, keep_alive)

    async def _respond(
        self,
        writer,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: dict[str, str] | None = None,
        keep_alive: bool = True,
    ) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        # Fresh id for replies that never reached _dispatch (e.g.
        # malformed framing) — every response correlates to *something*.
        request_id = _REQUEST_ID.get() or new_request_id()
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"X-Repro-Protocol: {PROTOCOL_VERSION}",
            f"{REQUEST_ID_HEADER}: {request_id}",
        ]
        if self.shard_id:
            head.append(f"{SHARD_HEADER}: {self.shard_id}")
        head.append(
            f"Connection: {'keep-alive' if keep_alive and not self._draining else 'close'}"
        )
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body)
        await writer.drain()
        get_registry().counter("serve.responses", code=str(status)).inc()

    async def _respond_error(
        self, writer, exc: ProtocolError, keep_alive: bool = True
    ) -> None:
        extra = {}
        if exc.retry_after_s is not None:
            extra["Retry-After"] = str(max(1, int(exc.retry_after_s)))
        await self._respond(
            writer,
            exc.http_status,
            encode_doc(error_doc(exc.code, exc.message, exc.retry_after_s)),
            extra_headers=extra,
            keep_alive=keep_alive,
        )

    # -- routing ------------------------------------------------------------------

    async def _dispatch(self, request: HttpRequest, writer) -> None:
        path = request.target.split("?", 1)[0]
        get_registry().counter("serve.requests", endpoint=path).inc()
        # A client-supplied id (cross-system tracing) is echoed when
        # well-formed; anything else gets a freshly generated one.
        request_id = (
            sanitize_request_id(request.headers.get(REQUEST_ID_HEADER.lower()))
            or new_request_id()
        )
        token = _REQUEST_ID.set(request_id)
        try:
            endpoint = self.ENDPOINTS.get(path)
            if endpoint is None:
                raise ProtocolError("not_found", f"no such endpoint {path!r}")
            method, handler = endpoint
            if request.method != method:
                raise ProtocolError(
                    "method_not_allowed",
                    f"{request.target} takes {method}, not {request.method}",
                )
            await getattr(self, handler)(request, writer)
        except ProtocolError as exc:
            await self._respond_error(writer, exc, keep_alive=request.keep_alive)
        finally:
            _REQUEST_ID.reset(token)

    # -- shared ops endpoints -----------------------------------------------------

    async def _handle_metricsz(self, request: HttpRequest, writer) -> None:
        """The registry as a mergeable JSON snapshot (router aggregation).

        Exactly :meth:`~repro.telemetry.MetricsRegistry.as_dict` — the
        shape :meth:`~repro.telemetry.MetricsRegistry.merge_snapshot`
        folds, histograms included (shared ``BUCKET_BOUNDS`` make the
        bucket counts add element-wise across shards).
        """
        doc = {
            "record": "repro-serve-metricsz",
            "protocol_version": PROTOCOL_VERSION,
            "shard": self.shard_id,
            "metrics": get_registry().as_dict(),
        }
        await self._respond(
            writer, 200, encode_doc(doc), keep_alive=request.keep_alive
        )

    async def _handle_debugz(self, request: HttpRequest, writer) -> None:
        """Observability snapshot: recent spans, SLO breakdown, slowest.

        Bypasses admission like the other ops endpoints — a saturated
        server must still explain where its time goes.  With tracing
        off (the default) it reports ``enabled: false`` and empty data.
        """
        from repro.obs.slo import slo_report
        from repro.obs.tracer import get_tracer

        tracer = get_tracer()
        spans = tracer.spans()
        doc = {
            "record": "repro-serve-debug",
            "tracer": {
                "enabled": bool(tracer.enabled),
                "capacity": tracer.capacity,
                "collected": len(spans),
                "dropped": tracer.dropped,
                "log_path": tracer.log_path,
            },
            "slo": slo_report(spans),
            "recent": [s.as_dict() for s in spans[-50:]],
        }
        await self._respond(
            writer, 200, encode_doc(doc), keep_alive=request.keep_alive
        )
