"""Request coalescing and micro-batching in front of the exec backend.

Requests for the *same* :class:`~repro.exec.keys.ExperimentKey`
collapse onto one in-flight computation (every waiter gets the same
response document), distinct keys accumulate into micro-batches, and
the store is consulted **before** anything is enqueued — a warm key
never simulates, never batches, never waits.  A batch is whatever is
queued when the batcher comes round (up to ``max_batch`` tasks): under
load, requests that arrive while one batch runs form the next, and a
lone request dispatches at once.  A batch runs on the batch path's own
miss path, :func:`~repro.exec.plan.run_misses`: tasks that share a
:class:`~repro.exec.keys.MappingKey` map once, and the batch is one
``run_payloads`` call on the executor whose pool the server holds for
its whole life.

Threading model: all coalescer state (in-flight map, pending queue)
lives on the event loop; only the miss path itself runs in a worker
thread via ``run_in_executor``, so there is exactly one batch executing
at a time and no locks anywhere.  Store reads are small JSON files and
stay on the loop deliberately — moving them off-loop would reorder them
against the in-flight map and reopen the duplicate-simulation race this
module exists to close.  Store writes happen inside the batch, before
its keys leave the in-flight map, so a later request finds either the
in-flight entry or the stored result.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass
from typing import Any

from repro.exec.executor import ExperimentExecutor
from repro.exec.plan import ExperimentTask, run_misses
from repro.obs.context import SpanContext, current_context
from repro.obs.tracer import span
from repro.simulator.serialization import result_to_dict
from repro.telemetry import get_registry
from repro.util.log import get_logger

__all__ = ["Submitted", "Coalescer"]

_LOG = get_logger("serve.coalesce")


@dataclass(frozen=True)
class Submitted:
    """One request's outcome: the response payload plus how it was met."""

    result: dict[str, Any]
    #: Served from the result store without touching the backend.
    cached: bool = False
    #: Collapsed onto another request already in flight for the same key.
    coalesced: bool = False
    #: Size of the batch this request's simulation ran in (0 if no run).
    batch_size: int = 0
    #: Span id of the ``exec.task`` span that computed the result ("" if
    #: cached or untraced) — the shared simulation span N coalesced
    #: requests all reference.
    span_id: str = ""


class Coalescer:
    """Deduplicate, batch and execute experiment tasks for the server.

    ``executor`` is the :class:`~repro.exec.executor.ExperimentExecutor`
    every batch runs on (default: serial in-process); ``store`` is an
    optional Result/MemoryStore consulted first and written back after
    every simulation.
    """

    def __init__(
        self,
        executor: ExperimentExecutor | None = None,
        store=None,
        max_batch: int = 8,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.executor = executor if executor is not None else ExperimentExecutor()
        self.store = store
        self.max_batch = max_batch
        self._inflight: dict[str, asyncio.Future] = {}
        # Queue entries carry the submitting request's span context so
        # the worker-side exec.task span reattaches to the *leader*
        # request's tree (waiters reference it via Submitted.span_id).
        self._queue: asyncio.Queue[
            tuple[ExperimentTask, SpanContext | None, asyncio.Future]
        ] = asyncio.Queue()
        self._batcher: asyncio.Task | None = None

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Start the batching loop (idempotent; needs a running loop)."""
        if self._batcher is None or self._batcher.done():
            self._batcher = asyncio.get_running_loop().create_task(
                self._run_batches(), name="serve-coalescer"
            )

    async def close(self) -> None:
        """Drain every pending/in-flight task, then stop the batcher."""
        await self.drain()
        if self._batcher is not None:
            self._batcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._batcher
            self._batcher = None

    async def drain(self) -> None:
        """Wait until no task is pending or executing."""
        while self._inflight or not self._queue.empty():
            await asyncio.sleep(0.005)

    @property
    def inflight(self) -> int:
        """Keys currently pending or executing (coalesce targets)."""
        return len(self._inflight)

    # -- submission ---------------------------------------------------------------

    async def submit(self, task: ExperimentTask) -> Submitted:
        """Resolve one task: coalesce, store hit, or batch + simulate.

        Raises whatever the backend raised (e.g.
        :class:`~repro.exec.executor.TaskError`) after retries are
        exhausted; the server maps that to a typed ``internal`` error.
        """
        reg = get_registry()
        digest = task.key.digest
        fut = self._inflight.get(digest)
        if fut is not None:
            reg.counter("serve.coalesced").inc()
            # shield: a waiter timing out must not cancel the shared
            # computation other waiters (and the store) depend on.
            with span("coalesce.wait", digest=digest[:12]) as sp:
                doc, batch_size, span_id = await asyncio.shield(fut)
                # The waiter's tree points at the leader's simulation
                # span: N logical requests, one shared computation.
                sp.set(shared_span=span_id)
            return Submitted(
                doc, coalesced=True, batch_size=batch_size, span_id=span_id
            )
        if self.store is not None:
            with span("store.get", digest=digest[:12]) as sp:
                cached = self.store.get(task.key)
                sp.set(hit=cached is not None)
            if cached is not None:
                return Submitted(result_to_dict(cached), cached=True)
        self.start()
        fut = asyncio.get_running_loop().create_future()
        self._inflight[digest] = fut
        with span("coalesce.queue", digest=digest[:12]) as sp:
            # submit() runs on the requester's own asyncio task, so the
            # ambient context here is the request's root span; the
            # batcher task has no such ambient context, which is why the
            # queue entry ships it explicitly.
            await self._queue.put((task, sp.context or current_context(), fut))
            doc, batch_size, span_id = await asyncio.shield(fut)
        return Submitted(doc, batch_size=batch_size, span_id=span_id)

    # -- batching -----------------------------------------------------------------

    async def _collect_batch(
        self,
    ) -> list[tuple[ExperimentTask, SpanContext | None, asyncio.Future]]:
        """One batch: the first waiter plus everything already queued.

        One yield to the loop first lets submitters woken in the same
        tick enqueue; then the queue is drained up to ``max_batch``
        without waiting.
        """
        batch = [await self._queue.get()]
        await asyncio.sleep(0)
        while len(batch) < self.max_batch and not self._queue.empty():
            batch.append(self._queue.get_nowait())
        return batch

    async def _run_batches(self) -> None:
        loop = asyncio.get_running_loop()
        reg = get_registry()
        while True:
            batch = await self._collect_batch()
            tasks = [t for t, _, _ in batch]
            ctxs = [c for _, c, _ in batch]
            reg.counter("serve.batches").inc()
            reg.histogram("serve.batch_size").observe(len(batch))
            start = time.perf_counter()
            try:
                docs = await loop.run_in_executor(None, self._execute, tasks, ctxs)
            except Exception as exc:  # noqa: BLE001 - fanned back to waiters
                _LOG.warning("batch of %d failed: %s", len(batch), exc)
                for _, _, fut in batch:
                    if not fut.done():
                        fut.set_exception(exc)
            else:
                for (_, _, fut), (doc, span_id) in zip(batch, docs):
                    if not fut.done():
                        fut.set_result((doc, len(batch), span_id))
            finally:
                reg.histogram("serve.batch_seconds").observe(
                    time.perf_counter() - start
                )
                for t, _, _ in batch:
                    self._inflight.pop(t.key.digest, None)

    def _execute(
        self,
        tasks: list[ExperimentTask],
        ctxs: list[SpanContext | None],
    ) -> list[tuple[dict[str, Any], str]]:
        """Blocking backend call; runs in a worker thread.

        :func:`~repro.exec.plan.run_misses` with each task's submitting
        request span as its parent (contextvars don't cross
        ``run_in_executor``, so parentage travels explicitly); every
        result passes the ``result_to_dict`` round-trip, so responses
        are identical whether they came from a simulation or a later
        store hit.  Returns ``(response doc, exec.task span id)`` per
        task.
        """
        return [
            (result_to_dict(result), span_id)
            for result, span_id in run_misses(
                tasks, self.executor, self.store, parents=ctxs
            )
        ]
