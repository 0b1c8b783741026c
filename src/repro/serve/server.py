"""The asyncio HTTP front end: admission, backpressure, drain, ops.

The HTTP/1.1 plumbing itself lives in :class:`~repro.serve.http.AsyncHttpServer`
(shared with the shard router); this module is the mapping *application*:

* ``POST /v1/experiment`` — run/fetch one experiment
  (:mod:`repro.serve.protocol` request/response documents);
* ``POST /v1/batch`` — protocol v3 batch: several experiment requests
  in one round trip, answered item by item in order (each item is a
  complete response/error document — per-item failures never fail the
  batch);
* ``GET /healthz`` — liveness (``ok`` / ``draining``);
* ``GET /statusz`` — JSON operational state: admission queue, coalescer
  depth, store stats, backend health (``exec.retries`` /
  ``exec.timeouts`` / failures straight from the telemetry registry);
* ``GET /metrics`` — Prometheus text exposition of the live registry;
* ``GET /metricsz`` — the same registry as a mergeable JSON snapshot
  (:meth:`~repro.telemetry.MetricsRegistry.as_dict`), what the shard
  router aggregates cluster-wide.

Backpressure is explicit: ``max_queue`` bounds the experiment requests
admitted concurrently (queued + batching + simulating), and the
``max_queue + 1``-th gets an immediate ``429`` with a ``Retry-After``
header — the client-visible contract load generators and upstream
callers key off.  Ops endpoints bypass admission: you can always ask a
saturated server how saturated it is.

Shutdown is a drain, not a drop: SIGINT/SIGTERM stop the listener and
new experiment admissions (``503 draining``), in-flight requests finish
and flush to the store, then the process exits 0.  When the server runs
as a shard worker (``shard_id`` set) every response also carries the
``X-Repro-Shard`` attribution header.
"""

from __future__ import annotations

import asyncio
import time

from repro.obs.tracer import span
from repro.serve.coalesce import Coalescer
from repro.serve.http import AsyncHttpServer, HttpRequest, current_request_id
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    apply_default_scale,
    batch_response_doc,
    encode_doc,
    error_doc,
    parse_batch_request,
    parse_request,
    response_doc,
)
from repro.telemetry import get_registry, to_prometheus_text
from repro.util.log import get_logger

__all__ = ["SERVE_COUNTERS", "MappingServer"]

_LOG = get_logger("serve.server")

#: Serve-side counters, pre-registered at zero like the pipeline's.
SERVE_COUNTERS = (
    "serve.requests",
    "serve.responses",
    "serve.rejected",
    "serve.coalesced",
    "serve.batches",
)


class MappingServer(AsyncHttpServer):
    """Long-lived mapping-as-a-service front end over one event loop.

    ``executor``/``store`` are the exec backend (defaults: serial
    in-process execution, no store — pass a
    :class:`~repro.exec.store.MemoryStore` at least, or warm keys will
    re-simulate once their in-flight window closes).  ``serve_forever``
    holds the executor's ``with`` block until the drain ends, so its
    pool is forked once and joined on exit.  ``registry`` and
    ``tracer`` are installed for the server's lifetime by
    :class:`~repro.serve.http.AsyncHttpServer`, so ``/metrics``,
    ``/statusz`` and ``/debugz`` have something to report.
    """

    ENDPOINTS = {
        **AsyncHttpServer.ENDPOINTS,
        "/healthz": ("GET", "_handle_healthz"),
        "/statusz": ("GET", "_handle_statusz"),
        "/metrics": ("GET", "_handle_metrics"),
        "/v1/experiment": ("POST", "_handle_experiment"),
        "/v1/batch": ("POST", "_handle_batch"),
    }

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        executor=None,
        store=None,
        registry=None,
        tracer=None,
        max_queue: int = 64,
        max_batch: int = 8,
        request_timeout_s: float = 300.0,
        default_scale: int = 0,
        shard_id: str = "",
    ):
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        super().__init__(
            host=host,
            port=port,
            shard_id=shard_id,
            registry=registry,
            tracer=tracer,
        )
        self.max_queue = max_queue
        self.request_timeout_s = request_timeout_s
        self.default_scale = default_scale
        self.coalescer = Coalescer(executor=executor, store=store, max_batch=max_batch)
        self._active = 0

    # -- lifecycle ----------------------------------------------------------------

    def serve_forever(self, install_signals: bool = True) -> int:
        """Run until shutdown; returns the process exit code (0 = drained)."""
        # Every batch shares the executor's one pool; leaving the block
        # after the drain (or a failed start) joins its workers.
        with self.coalescer.executor:
            return super().serve_forever(install_signals)

    async def _startup(self) -> None:
        for name in SERVE_COUNTERS:
            get_registry().counter(name)
        self.coalescer.start()

    async def _shutdown(self) -> None:
        _LOG.info("draining backend: %d in flight", self.coalescer.inflight)
        await self.coalescer.close()

    def _describe(self) -> str:
        return (
            f"max_queue={self.max_queue}, "
            f"max_batch={self.coalescer.max_batch}, "
            f"backend={self.coalescer.executor!r}"
            + (f", shard={self.shard_id}" if self.shard_id else "")
        )

    # -- ops endpoints ------------------------------------------------------------

    async def _handle_healthz(self, request: HttpRequest, writer) -> None:
        status = "draining" if self.draining else "ok"
        await self._respond(
            writer,
            200,
            encode_doc({"status": status}),
            keep_alive=request.keep_alive,
        )

    async def _handle_statusz(self, request: HttpRequest, writer) -> None:
        reg = get_registry()

        def count(name: str) -> int:
            return reg.counter(name).value

        store = self.coalescer.store
        doc = {
            "record": "repro-serve-status",
            "protocol_version": PROTOCOL_VERSION,
            "uptime_s": round(self.uptime_s, 3),
            "draining": self.draining,
            "admission": {
                "active": self._active,
                "max_queue": self.max_queue,
                "rejected": count("serve.rejected"),
            },
            "coalescer": {
                "inflight": self.coalescer.inflight,
                "coalesced": count("serve.coalesced"),
                "batches": count("serve.batches"),
                "max_batch": self.coalescer.max_batch,
            },
            "store": store.stats().as_dict() if store is not None else None,
            "backend": {
                "executor": repr(self.coalescer.executor),
                "simulations": count("simulator.simulations"),
                "retries": count("exec.retries"),
                "timeouts": count("exec.timeouts"),
                "failures": count("exec.tasks.failed"),
            },
        }
        if self.shard_id:
            doc["shard"] = self.shard_id
        await self._respond(
            writer, 200, encode_doc(doc), keep_alive=request.keep_alive
        )

    async def _handle_metrics(self, request: HttpRequest, writer) -> None:
        text = to_prometheus_text(get_registry())
        await self._respond(
            writer,
            200,
            text.encode("utf-8"),
            content_type="text/plain; version=0.0.4",
            keep_alive=request.keep_alive,
        )

    # /metricsz and /debugz come from AsyncHttpServer (shared with the
    # shard router — same snapshot shape, same tracer view).

    # -- the mapping endpoints ----------------------------------------------------

    def _admit(self, n: int = 1) -> None:
        """Reserve ``n`` admission slots or raise the typed rejection."""
        if self.draining:
            raise ProtocolError(
                "draining", "server is draining; retry elsewhere", retry_after_s=1.0
            )
        if self._active + n > self.max_queue:
            get_registry().counter("serve.rejected").inc()
            raise ProtocolError(
                "overloaded",
                f"admission queue full ({self.max_queue} requests in flight)",
                retry_after_s=1.0,
            )
        self._active += n
        get_registry().gauge("serve.queue_depth").set(self._active)

    def _release(self, n: int = 1) -> None:
        self._active -= n
        get_registry().gauge("serve.queue_depth").set(self._active)

    def _build_task(self, mapping):
        mapping = apply_default_scale(mapping, self.default_scale)
        try:
            return mapping.to_task()
        except ProtocolError:
            raise
        except (ValueError, KeyError, OSError) as exc:
            # e.g. a scenario naming a trace file the server cannot read.
            raise ProtocolError("bad_request", f"cannot build task: {exc}") from exc

    async def _submit(self, task):
        """One admitted task through the coalescer; returns (submitted, source)."""
        try:
            submitted = await asyncio.wait_for(
                self.coalescer.submit(task), self.request_timeout_s
            )
        except asyncio.TimeoutError:
            raise ProtocolError(
                "timeout",
                f"request exceeded {self.request_timeout_s:.0f}s "
                f"(key {task.key.digest[:12]})",
            ) from None
        except ProtocolError:
            raise
        except Exception as exc:  # noqa: BLE001 - typed for the wire
            _LOG.exception("backend failed for %r", task.key)
            raise ProtocolError("internal", f"backend failed: {exc}") from exc
        source = (
            "cache" if submitted.cached
            else "coalesced" if submitted.coalesced
            else "simulated"
        )
        return submitted, source

    async def _handle_experiment(self, request: HttpRequest, writer) -> None:
        # Saturation answers before the body is even parsed — rejection
        # stays cheap exactly when the server can least afford work.
        self._admit()
        try:
            task = self._build_task(parse_request(request.body))
            start = time.perf_counter()
            try:
                # The request's root span: its trace id IS the request id
                # the response header carries, so a client can fetch its
                # own tree from /debugz (or the span log) by that id.
                with span(
                    "request.experiment",
                    trace_id=current_request_id() or None,
                    workload=task.workload,
                    version=task.version,
                    digest=task.key.digest[:12],
                ) as root:
                    submitted, source = await self._submit(task)
                    root.set(source=source, batch_size=submitted.batch_size)
            finally:
                get_registry().histogram("serve.request_seconds").observe(
                    time.perf_counter() - start
                )
        finally:
            self._release()
        await self._respond(
            writer,
            200,
            encode_doc(response_doc(task.key, submitted.result)),
            extra_headers={
                "X-Repro-Source": source,
                "X-Repro-Batch-Size": str(submitted.batch_size),
                "X-Repro-Digest": task.key.digest,
            },
            keep_alive=request.keep_alive,
        )

    async def _handle_batch(self, request: HttpRequest, writer) -> None:
        """Protocol v3 batch: all items admitted together, run concurrently.

        Admission is all-or-nothing (a batch the queue cannot hold is a
        clean 429, never a half-admitted batch); per-item failures come
        back as typed error documents *inside* the batch response, in
        request order, so one bad item never costs the rest.
        """
        mappings = parse_batch_request(request.body)
        self._admit(len(mappings))
        start = time.perf_counter()
        try:
            with span(
                "request.batch",
                trace_id=current_request_id() or None,
                size=len(mappings),
            ):
                items, sources = await self._run_batch_items(mappings)
        finally:
            self._release(len(mappings))
            get_registry().histogram("serve.request_seconds").observe(
                time.perf_counter() - start
            )
        await self._respond(
            writer,
            200,
            encode_doc(batch_response_doc(items)),
            extra_headers={
                "X-Repro-Batch-Size": str(len(mappings)),
                "X-Repro-Sources": ",".join(sources),
            },
            keep_alive=request.keep_alive,
        )

    async def _run_batch_items(self, mappings):
        """Each batch item through the single-request path, concurrently."""

        async def run_one(mapping):
            try:
                task = self._build_task(mapping)
                submitted, source = await self._submit(task)
            except ProtocolError as exc:
                return error_doc(exc.code, exc.message, exc.retry_after_s), "error"
            return response_doc(task.key, submitted.result), source

        results = await asyncio.gather(*(run_one(m) for m in mappings))
        return [doc for doc, _ in results], [source for _, source in results]

    def __repr__(self) -> str:
        return (
            f"MappingServer({self.host}:{self.port}, "
            f"max_queue={self.max_queue}, backend={self.coalescer.executor!r})"
        )
