"""Span-context propagation across pools and coalescing.

The two contracts ISSUE 7 pins down: a parallel run (``workers=4``)
must produce the *same span tree* — names, nesting, parentage — as a
serial run of the same plan (worker spans repatriate through the
``run_payload`` result, just like metrics snapshots), and a coalesced
N→1 request must show N logical request spans all referencing the one
shared simulation (``exec.task``) span.
"""

import asyncio
import os

import pytest

from repro.exec.executor import ExperimentExecutor
from repro.exec.plan import SweepPlan, execute_plan
from repro.exec.store import MemoryStore
from repro.experiments.config import scaled_config
from repro.obs.tracer import Tracer, build_trees, span, use_tracer
from repro.serve.coalesce import Coalescer
from repro.serve.protocol import MappingRequest
from repro.telemetry import MetricsRegistry, use_registry
from repro.workloads.suite import get_workload

from tests.serve.test_coalesce import GatedExecutor, _settle


def _run_plan(executor):
    """Execute a 4-task plan under a live tracer; return its spans."""
    plan = SweepPlan()
    for name in ("hf", "sar"):
        for version in ("original", "inter"):
            plan.add(get_workload(name), scaled_config(16), version)
    tracer = Tracer(capacity=8192)
    with use_tracer(tracer):
        with span("test.request"):
            execute_plan(plan, executor=executor, store=MemoryStore())
    return tracer.spans()


def _signature(node):
    """A tree's shape: names + nesting, ignoring ids, times and pids."""
    return (
        node["span"].name,
        tuple(sorted(_signature(c) for c in node["children"])),
    )


class TestPoolParity:
    def test_workers4_tree_matches_serial(self):
        serial = _run_plan(ExperimentExecutor(workers=1))
        parallel = _run_plan(ExperimentExecutor(workers=4))

        serial_roots = build_trees(serial)
        parallel_roots = build_trees(parallel)
        assert len(serial_roots) == len(parallel_roots) == 1
        assert _signature(serial_roots[0]) == _signature(parallel_roots[0])

        # Every span of a run belongs to the one request's trace.
        for spans in (serial, parallel):
            assert len({s.trace_id for s in spans}) == 1

        # Parentage: each run has 4 exec.task spans, parented onto the
        # execute_plan phase span, each owning its mapper/simulate work.
        for spans in (serial, parallel):
            by_id = {s.span_id: s for s in spans}
            tasks = [s for s in spans if s.name == "exec.task"]
            assert len(tasks) == 4
            for t in tasks:
                assert by_id[t.parent_id].name == "execute_plan"
            children = {s.name for s in spans if s.parent_id in
                        {t.span_id for t in tasks}}
            assert {"prepare", "simulate"} <= children

    def test_pool_spans_come_from_worker_processes(self):
        spans = _run_plan(ExperimentExecutor(workers=4))
        tasks = [s for s in spans if s.name == "exec.task"]
        assert tasks and all(t.pid != os.getpid() for t in tasks)
        # The parent-side spans stay in this process.
        roots = [s for s in spans if s.name == "test.request"]
        assert roots and all(r.pid == os.getpid() for r in roots)

    def test_untraced_payloads_ship_no_spans(self):
        from repro.exec.executor import run_payload, task_payload

        out = run_payload(
            task_payload("hf", scaled_config(16), "original", {}, False)
        )
        assert "spans" not in out and "span_id" not in out


class TestCoalescedSharing:
    def test_n_requests_share_one_simulation_span(self):
        registry = MetricsRegistry()
        tracer = Tracer(capacity=8192)
        backend = GatedExecutor()
        n = 5

        async def one(i, coalescer, task):
            with span("request.experiment", trace_id=f"req-{i}"):
                return await coalescer.submit(task)

        async def scenario():
            coalescer = Coalescer(executor=backend, store=MemoryStore())
            task = MappingRequest("hf", "inter", scale=16).to_task()
            waiters = [
                asyncio.ensure_future(one(i, coalescer, task))
                for i in range(n)
            ]
            await _settle(
                lambda: registry.counter("serve.coalesced").value == n - 1
                and coalescer.inflight == 1
            )
            backend.gate.set()
            results = await asyncio.gather(*waiters)
            await coalescer.close()
            return results

        with use_registry(registry), use_tracer(tracer):
            results = asyncio.run(scenario())

        spans = tracer.spans()
        tasks = [s for s in spans if s.name == "exec.task"]
        assert len(tasks) == 1, "N coalesced requests, one simulation"
        shared = tasks[0].span_id

        # Every result — leader and waiters — references the shared span.
        assert {r.span_id for r in results} == {shared}
        assert sum(1 for r in results if r.coalesced) == n - 1

        # The leader's tree owns the simulation: exec.task parents onto
        # its coalesce.queue span, inside its request trace.
        by_id = {s.span_id: s for s in spans}
        queue_span = by_id[tasks[0].parent_id]
        assert queue_span.name == "coalesce.queue"
        assert tasks[0].trace_id == queue_span.trace_id

        # The other N-1 logical requests each carry a coalesce.wait span
        # in their own trace, pointing at the shared simulation span.
        waits = [s for s in spans if s.name == "coalesce.wait"]
        assert len(waits) == n - 1
        assert all(w.attrs["shared_span"] == shared for w in waits)
        assert len({w.trace_id for w in waits} | {queue_span.trace_id}) == n

        # All five logical request roots are present.
        roots = [s for s in spans if s.name == "request.experiment"]
        assert sorted(s.trace_id for s in roots) == [
            f"req-{i}" for i in range(n)
        ]
