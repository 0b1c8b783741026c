"""Process-pool execution of experiment tasks.

Independent (workload, config, version) tasks are embarrassingly
parallel — the mapper and simulator share no state across tasks — so
the executor fans them out over a ``concurrent.futures`` process pool.
Tasks cross the process boundary as plain JSON-safe payloads (the
config travels as its fingerprint) and results come back as
``result_to_dict`` documents, the same round-trip the result store
applies, so parallel results are bit-identical to serial ones.

Determinism: every RNG seed derives from (config.seed, workload,
version) inside :func:`~repro.simulator.runner.prepare_mapping` —
never from pool scheduling order — and results are collected by task
index, so ``workers=4`` reproduces ``workers=1`` exactly.

A payload is one task, or a *group* of tasks that share a
:func:`~repro.exec.keys.group_key` (:func:`group_payload`): the worker
prepares the group once (one nest build, one Fig. 5 distribution for
``inter`` and ``inter+sched``, one mapping per
:class:`~repro.exec.keys.MappingKey`) and simulates every cell of the
group, each on its own fresh hierarchy.  The unit of retry and
of timeout is the payload, so the per-payload timeout covers a whole
group.

Pool lifetime: the pool lives as long as the ``with executor:`` block
that owns it.  It is created lazily at the first batch that needs one
and shut down (workers joined) when the outermost block exits, so every
batch of the block shares it: a campaign, a ``use_execution`` scope and
a serving process each fork their workers once.  A
:meth:`~ExperimentExecutor.run_payloads` call made outside any block
opens a block of its own, so its pool is private to the batch and
joined before the call returns.

Failure handling, in order of escalation:

* a task failure or per-payload timeout is retried **in-process** with
  exponential backoff (a pool worker stuck past its timeout cannot be
  interrupted portably, so retries never depend on the pool);
* a pool that cannot be created (sandboxes without ``fork``/semaphores)
  or that breaks mid-run degrades the whole batch to serial in-process
  execution; a pool that broke or timed out is shut down without
  waiting on a stuck worker and never reused — the next batch of the
  block makes a fresh one (counted as ``exec.pool_restarts``), while a
  pool that could not be created is not tried again in the block;
* a task that still fails after the bounded retries raises
  :class:`TaskError` carrying the original cause.

Workers run with telemetry *enabled into a private registry* when the
parent's registry is live; the snapshot returns with the result and the
parent merges it in task order, so manifests from parallel runs carry
the same counter values as serial ones.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any

from repro.telemetry import MetricsRegistry, get_registry, thread_registry
from repro.util.log import get_logger

__all__ = [
    "TaskError",
    "ExperimentExecutor",
    "task_payload",
    "group_payload",
    "run_payload",
]

_LOG = get_logger("exec.executor")


class TaskError(RuntimeError):
    """A task exhausted its retries; ``__cause__`` is the last failure."""


def task_payload(
    workload: str,
    config,
    version: str,
    engine: dict[str, Any] | None = None,
    collect_metrics: bool = False,
    scenario: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Build the picklable task document ``run_payload`` executes.

    ``scenario`` is a scenario-spec fingerprint; when present the worker
    routes the payload through :mod:`repro.scenario.runner` instead of
    the suite workload builders.

    The payload pins the simulation engine: when the caller's engine
    options do not name one, the parent process's default is stamped in,
    so pool workers (which boot with their own default) reproduce the
    parent's choice exactly — and the payload matches the
    :class:`~repro.exec.keys.ExperimentKey` identity, which stamps the
    same default.
    """
    from repro.simulator.engines import get_default_engine
    from repro.util.fingerprint import config_fingerprint

    engine_doc = dict(engine or {})
    engine_doc.setdefault("engine", get_default_engine())
    payload = {
        "workload": workload,
        "version": version,
        "config": config_fingerprint(config),
        "engine": engine_doc,
        "collect_metrics": collect_metrics,
    }
    if scenario is not None:
        payload["scenario"] = dict(scenario)
    return payload


def group_payload(payloads: list[dict[str, Any]]) -> dict[str, Any]:
    """One payload running several tasks that prepare together.

    ``payloads`` are :func:`task_payload` documents of suite-workload
    tasks with one :func:`~repro.exec.keys.group_key`; the group keeps
    the first one's workload, version and metrics flag and lists each
    task's version, config and engine options as a cell.
    """
    first = payloads[0]
    return {
        "workload": first["workload"],
        "version": first["version"],
        "collect_metrics": first["collect_metrics"],
        "cells": [
            {"version": p["version"], "config": p["config"], "engine": p["engine"]}
            for p in payloads
        ],
    }


def _cell_options(engine: dict[str, Any]) -> dict[str, Any]:
    """``simulate_prepared`` keyword arguments from a payload's engine doc."""
    sync_counts = engine.get("sync_counts")
    if sync_counts is not None:
        sync_counts = {int(c): int(n) for c, n in sync_counts.items()}
    return {"sync_counts": sync_counts, "engine": engine.get("engine")}


def _execute_payload(payload: dict[str, Any]) -> list:
    """Run the simulations a payload describes (no metrics plumbing).

    One result per cell: a plain payload is a group of one.
    """
    from repro.simulator.runner import run_cells
    from repro.util.fingerprint import config_from_fingerprint
    from repro.workloads.suite import get_workload

    cells = payload.get("cells") or [payload]
    configs = [config_from_fingerprint(cell["config"]) for cell in cells]
    if payload.get("scenario"):
        from repro.scenario.runner import run_scenario_payload

        return [run_scenario_payload(payload, configs[0])]
    return run_cells(
        get_workload(payload["workload"]),
        [
            (cell["version"], config, _cell_options(cell.get("engine") or {}))
            for config, cell in zip(configs, cells)
        ],
    )


def _execute_traced(payload: dict[str, Any]):
    """Run a payload under a private tracer when it carries a trace context.

    The payload's ``trace`` entry (``{"trace_id", "parent_id"}``) is the
    requester's span context; the worker reattaches to it with an
    explicit-parent ``exec.task`` root span, collects every span the run
    produces (each :func:`~repro.telemetry.phase` opens one, so the
    prepare/mapping/simulate phases become its leaves) into a
    thread-scoped private tracer, and ships them home beside the
    metrics snapshot — the same piggyback path ``merge_snapshot`` uses.
    Returns ``(results, span_dicts, task_span_id)``.
    """
    from repro.obs.tracer import Tracer, span, thread_tracer

    trace = payload.get("trace")
    if not trace:
        return _execute_payload(payload), None, None
    collector = Tracer(capacity=4096)
    with thread_tracer(collector):
        with span(
            "exec.task",
            trace_id=trace.get("trace_id"),
            parent_id=trace.get("parent_id"),
            workload=payload.get("workload"),
            version=payload.get("version"),
        ) as task_span:
            ctx = task_span.context
            results = _execute_payload(payload)
    return (
        results,
        [s.as_dict() for s in collector.spans()],
        ctx.span_id if ctx is not None else None,
    )


def run_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Worker entry point: run one payload (a task or a group).

    Module-level (not a closure/lambda) so it pickles under both
    ``fork`` and ``spawn`` start methods.  Returns
    ``{"result": result_to_dict(...), "metrics": registry snapshot | None,
    "spans": span dicts | None, "span_id": task root span id | None}``
    (the latter two only when the payload carries a ``trace`` context);
    a :func:`group_payload` returns ``"results"``, one per cell in
    order, in place of ``"result"``.
    """
    from repro.simulator.serialization import result_to_dict

    metrics = None
    if payload.get("collect_metrics"):
        # Thread-scoped, not process-global: in-process retries and the
        # serve backend run payloads from worker threads, and a private
        # collection registry must not shadow what other threads see.
        registry = MetricsRegistry()
        with thread_registry(registry):
            results, spans, span_id = _execute_traced(payload)
        metrics = registry.as_dict()
    else:
        results, spans, span_id = _execute_traced(payload)
    docs = [result_to_dict(r) for r in results]
    out: dict[str, Any] = (
        {"results": docs} if "cells" in payload else {"result": docs[0]}
    )
    out["metrics"] = metrics
    if spans is not None:
        out["spans"] = spans
        out["span_id"] = span_id
    return out


def _pick_context(mp_context):
    import multiprocessing

    if mp_context is not None and not isinstance(mp_context, str):
        return mp_context
    if isinstance(mp_context, str):
        return multiprocessing.get_context(mp_context)
    # fork is cheapest and inherits sys.path; spawn is the portable
    # fallback (run_payload is module-level, so both pickle fine).
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ExperimentExecutor:
    """Bounded process-pool executor for experiment payloads.

    ``workers <= 1`` short-circuits to serial in-process execution;
    ``task_timeout_s`` bounds each result wait; failures retry
    in-process up to ``retries`` times with exponential ``backoff_s``.
    The batches run inside one ``with`` block share one pool (see the
    module docstring).
    """

    def __init__(
        self,
        workers: int = 1,
        task_timeout_s: float | None = None,
        retries: int = 2,
        backoff_s: float = 0.25,
        mp_context=None,
    ):
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.workers = workers
        self.task_timeout_s = task_timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self._mp_context = mp_context
        #: Degradation/retry records since the last :meth:`pop_events`
        #: drain — campaign manifests persist these beside the metrics,
        #: so "why did this run go serial?" survives the process.
        self._events: list[dict[str, Any]] = []
        #: Open ``with`` blocks; the pool below lives while one is open.
        self._blocks = 0
        self._pool: ProcessPoolExecutor | None = None
        #: The block's pool broke or timed out: the next one is a restart.
        self._pool_lost = False
        #: The block could not make a pool: stay serial, say so once.
        self._pool_unavailable = False

    def __enter__(self) -> "ExperimentExecutor":
        self._blocks += 1
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._blocks -= 1
        if self._blocks == 0:
            pool, self._pool = self._pool, None
            self._pool_lost = self._pool_unavailable = False
            if pool is not None:
                pool.shutdown(wait=True)

    # -- internals ----------------------------------------------------------------

    def _event(self, kind: str, **fields: Any) -> None:
        self._events.append({"kind": kind, **fields})

    def pop_events(self) -> list[dict[str, Any]]:
        """Drain accumulated degradation/retry event records."""
        events, self._events = self._events, []
        return events

    def _make_pool(self) -> ProcessPoolExecutor | None:
        try:
            return ProcessPoolExecutor(
                max_workers=self.workers, mp_context=_pick_context(self._mp_context)
            )
        except (OSError, ValueError, ImportError, NotImplementedError) as exc:
            _LOG.warning(
                "process pool unavailable (%s: %s); running serially",
                type(exc).__name__,
                exc,
            )
            self._event(
                "pool-unavailable", error=f"{type(exc).__name__}: {exc}"
            )
            return None

    def _acquire_pool(self) -> ProcessPoolExecutor | None:
        """The block's pool, made on first use."""
        if self._pool is None and not self._pool_unavailable:
            self._pool = self._make_pool()
            if self._pool is None:
                self._pool_unavailable = True
            elif self._pool_lost:
                self._pool_lost = False
                get_registry().counter("exec.pool_restarts").inc()
                _LOG.info("made a fresh process pool after losing the last one")
                self._event("pool-restart")
        return self._pool

    def _release_pool(self, healthy: bool, wait: bool) -> None:
        """Keep a healthy pool; drop one that broke or timed out."""
        if healthy:
            return
        pool, self._pool = self._pool, None
        self._pool_lost = True
        # A worker stuck past its timeout would block a waiting
        # shutdown forever; hand unfinished work back without waiting.
        pool.shutdown(wait=wait, cancel_futures=True)

    def _retry_in_process(
        self, payload: dict[str, Any], first_error: BaseException
    ) -> dict[str, Any]:
        reg = get_registry()
        last: BaseException = first_error
        for attempt in range(self.retries):
            time.sleep(self.backoff_s * (2**attempt))
            reg.counter("exec.retries").inc()
            self._event(
                "retry",
                task=f"{payload.get('workload')}/{payload.get('version')}",
                attempt=attempt + 1,
                error=f"{type(last).__name__}: {last}",
            )
            try:
                return run_payload(payload)
            except Exception as exc:  # noqa: BLE001 - preserved as cause
                last = exc
        reg.counter("exec.tasks.failed").inc()
        raise TaskError(
            f"task {payload.get('workload')}/{payload.get('version')} failed "
            f"after {self.retries} retr{'y' if self.retries == 1 else 'ies'}"
        ) from last

    # -- public API ---------------------------------------------------------------

    def run_payloads(
        self, payloads: list[dict[str, Any]], on_result=None
    ) -> list[dict[str, Any]]:
        """Execute payloads, returning results in payload order.

        ``on_result(i, out)`` (optional) fires with payload ``i``'s
        output as it lands — in submission order on the pool path, with
        in-process retries last — so callers can store results and
        report progress while later payloads still run.  An exception
        it raises ends the batch: it is never retried as a task failure,
        and on the pool path the pool is dropped with the batch's
        queued payloads cancelled (the next batch makes a fresh one).
        """
        reg = get_registry()
        reg.gauge("exec.workers").set(self.workers)

        def _serial() -> list[dict[str, Any]]:
            out = []
            for i, p in enumerate(payloads):
                out.append(run_payload(p))
                if on_result is not None:
                    on_result(i, out[i])
            return out

        if self.workers <= 1 or len(payloads) <= 1:
            return _serial()
        out: list[dict[str, Any] | None] = [None] * len(payloads)
        failed: list[tuple[int, BaseException]] = []
        timed_out = broken = finished = False
        # Outside any block this is the batch's own: its pool is private
        # and joined before the retries below run.
        with self:
            pool = self._acquire_pool()
            if pool is None:
                return _serial()
            try:
                start = time.perf_counter()
                futures = [pool.submit(run_payload, p) for p in payloads]
                reg.counter("exec.tasks.submitted").inc(len(payloads))
                for i, fut in enumerate(futures):
                    try:
                        out[i] = fut.result(timeout=self.task_timeout_s)
                    except FutureTimeoutError as exc:
                        timed_out = True
                        reg.counter("exec.timeouts").inc()
                        fut.cancel()
                        _LOG.warning(
                            "task %s/%s timed out after %.1fs; retrying in-process",
                            payloads[i].get("workload"),
                            payloads[i].get("version"),
                            self.task_timeout_s or 0.0,
                        )
                        self._event(
                            "timeout",
                            task=f"{payloads[i].get('workload')}"
                            f"/{payloads[i].get('version')}",
                            timeout_s=self.task_timeout_s,
                        )
                        failed.append((i, exc))
                    except BrokenExecutor as exc:
                        # One dead worker breaks every pending future: say so
                        # once per batch, not once per task.
                        if not broken:
                            broken = True
                            _LOG.warning(
                                "process pool broke (%s); degrading to in-process",
                                exc,
                            )
                            self._event(
                                "broken-pool", error=str(exc) or type(exc).__name__
                            )
                        failed.append((i, exc))
                    except Exception as exc:  # noqa: BLE001 - retried below
                        failed.append((i, exc))
                    else:
                        reg.counter("exec.tasks.completed").inc()
                        if on_result is not None:
                            on_result(i, out[i])
                reg.histogram("exec.batch_seconds").observe(
                    time.perf_counter() - start
                )
                finished = True
            finally:
                self._release_pool(
                    healthy=finished and not (timed_out or broken), wait=not timed_out
                )
        for i, exc in failed:
            out[i] = self._retry_in_process(payloads[i], exc)
            reg.counter("exec.tasks.completed").inc()
            if on_result is not None:
                on_result(i, out[i])
        return out  # type: ignore[return-value]

    def __repr__(self) -> str:
        return (
            f"ExperimentExecutor(workers={self.workers}, "
            f"timeout={self.task_timeout_s}, retries={self.retries})"
        )
