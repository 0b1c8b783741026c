"""The front router: one protocol endpoint over N shard workers.

:class:`ShardRouter` rides the same
:class:`~repro.serve.http.AsyncHttpServer` core as the workers it
fronts, so a cluster is indistinguishable from a single ``repro serve``
to any client — same versioned documents, same typed errors, same
canonical (byte-identical) response bodies, same drain semantics.  Per
request it:

* computes the :class:`~repro.exec.keys.ExperimentKey` digest exactly
  as the worker will (including the server-side default scale), asks
  the :class:`~repro.shard.ring.HashRing` for the owner, and forwards
  the *original* body verbatim — the worker re-derives the same key,
  so placement and execution can never disagree;
* applies per-shard admission: at most ``max_inflight`` router-side
  requests per shard, the next one getting the standard ``429`` +
  ``Retry-After`` rejection (workers keep their own ``max_queue`` as
  the second line of defence);
* forwards the request id header, so the worker's span tree shares the
  client's trace id — one trace across the router hop;
* fans ``/v1/batch`` out as per-shard sub-batches and reassembles the
  items in request order (a shard failure turns into per-item typed
  error documents, never a lost batch);
* aggregates the ops plane: ``/healthz`` polls every worker,
  ``/statusz`` embeds per-shard status plus cluster totals, and
  ``/metrics`` merges the workers' ``/metricsz`` registry snapshots —
  each relabelled ``shard=<id>`` — into one Prometheus exposition
  (histograms compose exactly; the router's own series carry
  ``shard=router``).

Drain is a *handoff*, not an outage: ``drain_shard()`` parks new
requests for the leaving shard on a gate, waits out its in-flight
work, stops the worker (its server drains and flushes), removes it
from the ring, rebalances its partition into the survivors, then
releases the gate — parked requests re-route and hit warm entries.
Zero lost requests, zero re-simulation.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.obs.context import REQUEST_ID_HEADER
from repro.obs.tracer import span
from repro.serve.http import (
    SHARD_HEADER,
    AsyncHttpServer,
    HttpRequest,
    current_request_id,
    http_exchange,
)
from repro.serve.protocol import (
    BATCH_RESPONSE_RECORD,
    PROTOCOL_VERSION,
    ProtocolError,
    apply_default_scale,
    batch_request_doc,
    batch_response_doc,
    encode_doc,
    error_doc,
    parse_batch_request,
    parse_request,
)
from repro.telemetry import (
    MetricsRegistry,
    get_registry,
    label_snapshot,
    to_prometheus_text,
)
from repro.util.log import get_logger

__all__ = ["SHARD_COUNTERS", "ShardRouter"]

_LOG = get_logger("shard.router")

#: Ops fan-out timeout (healthz/statusz/metrics polls) — short, so one
#: wedged worker can't stall the cluster view.
FETCH_TIMEOUT_S = 10.0

#: Router-side counters, pre-registered at zero like the serve ones.
SHARD_COUNTERS = (
    "shard.requests",
    "shard.rejected",
    "shard.errors",
    "shard.drains",
)

#: The per-request headers relayed from a worker answer to the client:
#: lower-cased name as received → name as sent.
_RELAY_HEADERS = {
    "x-repro-source": "X-Repro-Source",
    "x-repro-batch-size": "X-Repro-Batch-Size",
    "x-repro-sources": "X-Repro-Sources",
    "x-repro-digest": "X-Repro-Digest",
    "x-repro-shard": SHARD_HEADER,
    "retry-after": "Retry-After",
}


class ShardRouter(AsyncHttpServer):
    """Consistent-hash front end over the shard workers.

    ``backends`` maps shard id → ``(host, port)`` and must cover every
    ring member.  ``stop_worker`` (optional, from the cluster) makes
    ``drain_shard`` / ``POST /admin/drain`` available: a blocking
    callable that SIGTERMs one worker and waits for its drain.
    ``store_root`` (the partition root) is required for drain and
    reported in ``/statusz``.
    """

    ENDPOINTS = {
        **AsyncHttpServer.ENDPOINTS,
        "/healthz": ("GET", "_handle_healthz"),
        "/statusz": ("GET", "_handle_statusz"),
        "/metrics": ("GET", "_handle_metrics"),
        "/v1/experiment": ("POST", "_handle_experiment"),
        "/v1/batch": ("POST", "_handle_batch"),
        "/admin/drain": ("POST", "_handle_drain"),
    }

    def __init__(
        self,
        ring,
        backends: dict[str, tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        store_root=None,
        registry=None,
        tracer=None,
        max_inflight: int = 64,
        request_timeout_s: float = 300.0,
        default_scale: int = 0,
        stop_worker=None,
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        super().__init__(
            host=host,
            port=port,
            registry=registry,
            tracer=tracer,
        )
        self.ring = ring
        self.backends = dict(backends)
        self.store_root = store_root
        self.max_inflight = max_inflight
        self.request_timeout_s = request_timeout_s
        self.default_scale = default_scale
        self._stop_worker = stop_worker
        self._inflight: dict[str, int] = {m: 0 for m in ring.members}
        #: shard id → gate parking its requests during a drain.
        self._gates: dict[str, asyncio.Event] = {}

    def _reg(self):
        """The router's own registry, falling back to the ambient one.

        Router-side counters must land in a deterministic place even
        when several servers share one process (in-thread test
        harnesses): the process-global active registry is whichever
        ``use_registry`` happened last, so prefer ``self.registry``.
        """
        return self.registry if self.registry is not None else get_registry()

    # -- lifecycle ----------------------------------------------------------------

    async def _startup(self) -> None:
        # Coverage is checked here, not in __init__: the cluster
        # constructs the router first and fills ``backends`` as workers
        # come up, before serving.
        missing = [m for m in self.ring.members if m not in self.backends]
        if missing:
            raise ValueError(f"ring members without backends: {missing}")
        for name in SHARD_COUNTERS:
            self._reg().counter(name)

    def _describe(self) -> str:
        return (
            f"router over {len(self.backends)} shard(s) "
            f"{list(self.ring.members)}, max_inflight={self.max_inflight}/shard"
        )

    # -- placement + admission ----------------------------------------------------

    def _routing_digest(self, mapping) -> str:
        """The key digest the owning worker will derive for ``mapping``."""
        mapping = apply_default_scale(mapping, self.default_scale)
        try:
            return mapping.to_key().digest
        except ProtocolError:
            raise
        except (ValueError, KeyError, OSError) as exc:
            raise ProtocolError("bad_request", f"cannot build key: {exc}") from exc

    async def _owner(self, digest: str) -> str:
        """The digest's current owner, waiting out any drain in progress."""
        while True:
            owner = self.ring.route(digest)
            gate = self._gates.get(owner)
            if gate is None:
                return owner
            # The owner is mid-drain: park until its keys have moved,
            # then re-ask the ring (the member will be gone).
            await gate.wait()

    def _admit(self, shard: str, n: int = 1) -> None:
        if self.draining:
            raise ProtocolError(
                "draining", "router is draining; retry later", retry_after_s=1.0
            )
        reg = self._reg()
        if self._inflight.get(shard, 0) + n > self.max_inflight:
            reg.counter("shard.rejected", shard=shard).inc()
            raise ProtocolError(
                "overloaded",
                f"shard {shard} at capacity "
                f"({self.max_inflight} router-side requests in flight)",
                retry_after_s=1.0,
            )
        self._inflight[shard] = self._inflight.get(shard, 0) + n
        reg.gauge("shard.inflight", shard=shard).set(self._inflight[shard])

    def _release(self, shard: str, n: int = 1) -> None:
        self._inflight[shard] = max(0, self._inflight.get(shard, 0) - n)
        self._reg().gauge("shard.inflight", shard=shard).set(
            self._inflight[shard]
        )

    async def _forward(
        self,
        shard: str,
        method: str,
        path: str,
        body: bytes = b"",
        timeout_s: float | None = None,
    ) -> tuple[int, bytes, dict[str, str]]:
        """One exchange with a shard worker, typed errors on transport."""
        host, port = self.backends[shard]
        headers = {}
        request_id = current_request_id()
        if request_id:
            # The hop that stitches the trace: the worker echoes this id
            # and roots its spans under it.
            headers[REQUEST_ID_HEADER] = request_id
        try:
            return await asyncio.wait_for(
                http_exchange(host, port, method, path, body, headers),
                timeout_s or self.request_timeout_s,
            )
        except asyncio.TimeoutError:
            self._reg().counter("shard.errors", shard=shard).inc()
            raise ProtocolError(
                "timeout", f"shard {shard} exceeded {timeout_s or self.request_timeout_s:.0f}s"
            ) from None
        except OSError as exc:
            self._reg().counter("shard.errors", shard=shard).inc()
            raise ProtocolError(
                "bad_gateway", f"shard {shard} unreachable: {exc}"
            ) from exc

    @staticmethod
    def _relay_headers(headers: dict[str, str]) -> dict[str, str]:
        return {
            name: headers[lower]
            for lower, name in _RELAY_HEADERS.items()
            if lower in headers
        }

    # -- the protocol endpoints ---------------------------------------------------

    async def _handle_experiment(self, request: HttpRequest, writer) -> None:
        digest = self._routing_digest(parse_request(request.body))
        shard = await self._owner(digest)
        self._admit(shard)
        reg = self._reg()
        reg.counter("shard.requests", shard=shard).inc()
        start = time.perf_counter()
        try:
            with span(
                "router.request",
                trace_id=current_request_id() or None,
                shard=shard,
                digest=digest[:12],
            ) as root:
                status, body, headers = await self._forward(
                    shard, "POST", "/v1/experiment", request.body
                )
                root.set(status=status)
        finally:
            self._release(shard)
            reg.histogram("shard.request_seconds", shard=shard).observe(
                time.perf_counter() - start
            )
        # The worker's canonical bytes pass through untouched — that is
        # the whole byte-identity story: the cluster answers with
        # exactly the document one server would have produced.
        await self._respond(
            writer,
            status,
            body,
            extra_headers=self._relay_headers(headers),
            keep_alive=request.keep_alive,
        )

    async def _handle_batch(self, request: HttpRequest, writer) -> None:
        """Fan a batch out shard-by-shard, reassemble in request order."""
        mappings = parse_batch_request(request.body)
        # The raw per-item documents, for verbatim sub-batch forwarding.
        raw_items = json.loads(request.body.decode("utf-8"))["requests"]
        by_shard: dict[str, list[int]] = {}
        for index, mapping in enumerate(mappings):
            shard = await self._owner(self._routing_digest(mapping))
            by_shard.setdefault(shard, []).append(index)
        items: list[dict | None] = [None] * len(mappings)
        sources: list[str] = ["error"] * len(mappings)
        reg = self._reg()

        async def run_shard(shard: str, indices: list[int]) -> None:
            self._admit(shard, len(indices))
            reg.counter("shard.requests", shard=shard).inc(len(indices))
            start = time.perf_counter()
            try:
                sub_body = encode_doc(
                    batch_request_doc([raw_items[i] for i in indices])
                )
                status, body, headers = await self._forward(
                    shard, "POST", "/v1/batch", sub_body
                )
                doc = json.loads(body.decode("utf-8"))
                if status != 200 or doc.get("record") != BATCH_RESPONSE_RECORD:
                    # Whole-sub-batch rejection (e.g. worker 429): every
                    # item of this shard gets the typed error, in-band.
                    err = doc.get("error", {}) if isinstance(doc, dict) else {}
                    item = error_doc(
                        err.get("code", "bad_gateway"),
                        err.get("message", f"shard {shard} returned {status}"),
                        doc.get("retry_after_s") if isinstance(doc, dict) else None,
                    )
                    for i in indices:
                        items[i] = item
                    return
                shard_sources = (
                    headers.get("x-repro-sources", "").split(",")
                    if headers.get("x-repro-sources")
                    else [""] * len(indices)
                )
                for position, i in enumerate(indices):
                    items[i] = doc["items"][position]
                    if position < len(shard_sources):
                        sources[i] = shard_sources[position]
            except ProtocolError as exc:
                item = error_doc(exc.code, exc.message, exc.retry_after_s)
                for i in indices:
                    items[i] = item
            finally:
                self._release(shard, len(indices))
                reg.histogram("shard.request_seconds", shard=shard).observe(
                    time.perf_counter() - start
                )

        with span(
            "router.batch",
            trace_id=current_request_id() or None,
            size=len(mappings),
            shards=len(by_shard),
        ):
            await asyncio.gather(
                *(run_shard(s, idx) for s, idx in sorted(by_shard.items()))
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

    # -- the aggregated ops plane -------------------------------------------------

    async def _poll_shards(self, path: str) -> dict[str, dict | None]:
        """GET ``path`` from every backend concurrently (None = unreachable)."""

        async def poll(shard: str) -> tuple[str, dict | None]:
            try:
                status, body, _ = await self._forward(
                    shard, "GET", path, timeout_s=FETCH_TIMEOUT_S
                )
                if status != 200:
                    return shard, None
                return shard, json.loads(body.decode("utf-8"))
            except (ProtocolError, ValueError):
                return shard, None

        results = await asyncio.gather(*(poll(s) for s in sorted(self.backends)))
        return dict(results)

    async def _handle_healthz(self, request: HttpRequest, writer) -> None:
        polled = await self._poll_shards("/healthz")
        shards = {
            shard: (doc or {}).get("status", "unreachable")
            for shard, doc in polled.items()
        }
        if self.draining:
            status = "draining"
        elif all(state == "ok" for state in shards.values()):
            status = "ok"
        else:
            status = "degraded"
        await self._respond(
            writer,
            200,
            encode_doc({"status": status, "shards": shards}),
            keep_alive=request.keep_alive,
        )

    async def _handle_statusz(self, request: HttpRequest, writer) -> None:
        reg = self._reg()
        shards = await self._poll_shards("/statusz")
        totals = {"simulations": 0, "store_entries": 0, "active": 0}
        for doc in shards.values():
            if not doc:
                continue
            totals["simulations"] += doc.get("backend", {}).get("simulations", 0)
            totals["active"] += doc.get("admission", {}).get("active", 0)
            store = doc.get("store") or {}
            totals["store_entries"] += store.get("entries", 0)
        doc = {
            "record": "repro-shard-status",
            "protocol_version": PROTOCOL_VERSION,
            "uptime_s": round(self.uptime_s, 3),
            "draining": self.draining,
            "ring": self.ring.describe(),
            "router": {
                "max_inflight": self.max_inflight,
                "inflight": dict(sorted(self._inflight.items())),
                "parked": sorted(self._gates),
                "rejected": reg.counter("shard.rejected").value,
                "drains": reg.counter("shard.drains").value,
                "store_root": str(self.store_root) if self.store_root else None,
            },
            "totals": totals,
            "shards": shards,
        }
        await self._respond(
            writer,
            200,
            encode_doc(doc),
            extra_headers={SHARD_HEADER: "router"},
            keep_alive=request.keep_alive,
        )

    async def _handle_metrics(self, request: HttpRequest, writer) -> None:
        """Cluster-wide Prometheus exposition: every series shard-labelled.

        Each worker's ``/metricsz`` snapshot is relabelled
        ``shard=<id>`` and folded into one fresh registry together with
        the router's own series (``shard=router``); the shared
        histogram bucket bounds make even latency distributions compose
        exactly across the cluster.
        """
        merged = MetricsRegistry()
        for shard, doc in (await self._poll_shards("/metricsz")).items():
            if not doc:
                self._reg().counter("shard.errors", shard=shard).inc()
                continue
            merged.merge_snapshot(
                label_snapshot(doc.get("metrics", {}), shard=shard)
            )
        merged.merge_snapshot(
            label_snapshot(self._reg().as_dict(), shard="router")
        )
        text = to_prometheus_text(merged)
        await self._respond(
            writer,
            200,
            text.encode("utf-8"),
            content_type="text/plain; version=0.0.4",
            extra_headers={SHARD_HEADER: "router"},
            keep_alive=request.keep_alive,
        )

    # -- drain / membership -------------------------------------------------------

    async def drain_shard(self, shard: str) -> dict:
        """Warm-handoff drain of one shard; returns a summary document.

        Sequence: park new arrivals for the shard → wait out its
        in-flight requests → stop its worker (the server drains and
        flushes its partition) → remove it from the ring → rebalance
        its partition into the new owners → release the parked
        requests, which re-route onto the warm entries.
        """
        from repro.shard.partition import rebalance

        if shard not in self.ring:
            raise ProtocolError("bad_request", f"unknown shard {shard!r}")
        if shard in self._gates:
            raise ProtocolError("bad_request", f"shard {shard!r} already draining")
        if len(self.ring) == 1:
            raise ProtocolError("bad_request", "cannot drain the last shard")
        if self._stop_worker is None or self.store_root is None:
            raise ProtocolError(
                "bad_request", "this router does not manage worker lifecycle"
            )
        _LOG.info("draining shard %s", shard)
        gate = asyncio.Event()
        self._gates[shard] = gate
        loop = asyncio.get_running_loop()
        try:
            while self._inflight.get(shard, 0) > 0:
                await asyncio.sleep(0.01)
            # The worker's own SIGTERM drain flushes every admitted
            # request to its partition before the process exits 0.
            await loop.run_in_executor(None, self._stop_worker, shard)
            self.ring.remove(shard)
            self.backends.pop(shard, None)
            self._inflight.pop(shard, None)
            moved = await loop.run_in_executor(
                None, rebalance, self.store_root, self.ring
            )
        finally:
            # Always release parked requests — after a successful drain
            # they re-route; after a failure the shard is still there.
            del self._gates[shard]
            gate.set()
        self._reg().counter("shard.drains").inc()
        _LOG.info(
            "shard %s drained: %d entries rebalanced onto %s",
            shard,
            moved,
            list(self.ring.members),
        )
        return {
            "record": "repro-shard-drain",
            "shard": shard,
            "moved_entries": moved,
            "members": list(self.ring.members),
        }

    async def _handle_drain(self, request: HttpRequest, writer) -> None:
        try:
            doc = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ProtocolError("bad_json", "drain body is not valid JSON") from None
        shard = doc.get("shard") if isinstance(doc, dict) else None
        if not isinstance(shard, str) or not shard:
            raise ProtocolError("bad_request", 'drain body needs {"shard": "<id>"}')
        summary = await self.drain_shard(shard)
        await self._respond(
            writer,
            200,
            encode_doc(summary),
            extra_headers={SHARD_HEADER: "router"},
            keep_alive=request.keep_alive,
        )

    def __repr__(self) -> str:
        return (
            f"ShardRouter({self.host}:{self.port}, "
            f"shards={list(self.ring.members)})"
        )
