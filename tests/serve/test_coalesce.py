"""Tests for in-flight deduplication and micro-batching."""

import asyncio
import threading

import pytest

from repro.exec.executor import ExperimentExecutor
from repro.exec.store import MemoryStore
from repro.serve.coalesce import Coalescer, Submitted
from repro.serve.protocol import MappingRequest
from repro.telemetry import MetricsRegistry, use_registry


def make_task(workload="hf", version="original"):
    return MappingRequest(workload, version, scale=16).to_task()


class GatedExecutor(ExperimentExecutor):
    """A serial backend that blocks every batch until the test opens the gate."""

    def __init__(self):
        super().__init__(workers=1)
        self.gate = threading.Event()
        self.entered = 0
        self.batches = []

    def run_payloads(self, payloads, on_result=None):
        self.entered += 1
        assert self.gate.wait(30.0), "test never opened the gate"
        self.batches.append(len(payloads))
        return super().run_payloads(payloads, on_result)


class FailingExecutor(ExperimentExecutor):
    def run_payloads(self, payloads, on_result=None):
        raise RuntimeError("backend down")


async def _settle(predicate, timeout_s=10.0):
    """Poll an event-loop-side predicate until true (or fail the test)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        assert loop.time() < deadline, "condition never became true"
        await asyncio.sleep(0.005)


class TestCoalescing:
    def test_identical_submits_share_one_simulation(self):
        registry = MetricsRegistry()
        backend = GatedExecutor()

        async def scenario():
            coalescer = Coalescer(executor=backend, store=MemoryStore())
            task = make_task()
            waiters = [
                asyncio.ensure_future(coalescer.submit(task)) for _ in range(5)
            ]
            # All five must be parked on the same in-flight key before
            # the backend is allowed to finish.
            await _settle(
                lambda: registry.counter("serve.coalesced").value == 4
                and coalescer.inflight == 1
            )
            backend.gate.set()
            results = await asyncio.gather(*waiters)
            await coalescer.close()
            return results

        with use_registry(registry):
            results = asyncio.run(scenario())

        assert backend.batches == [1]
        assert registry.counter("simulator.simulations").value == 1
        assert sum(1 for r in results if r.coalesced) == 4
        assert sum(1 for r in results if not r.coalesced and not r.cached) == 1
        docs = [r.result for r in results]
        assert all(doc == docs[0] for doc in docs)

    def test_store_hit_skips_backend(self):
        backend = GatedExecutor()
        backend.gate.set()

        async def scenario():
            coalescer = Coalescer(executor=backend, store=MemoryStore())
            first = await coalescer.submit(make_task())
            second = await coalescer.submit(make_task())
            await coalescer.close()
            return first, second

        first, second = asyncio.run(scenario())
        assert not first.cached
        assert second.cached and second.batch_size == 0
        assert backend.batches == [1]
        assert second.result == first.result

    def test_distinct_keys_share_a_batch(self):
        backend = GatedExecutor()

        async def scenario():
            coalescer = Coalescer(executor=backend, store=MemoryStore())
            waiters = [
                asyncio.ensure_future(coalescer.submit(make_task(version=v)))
                for v in ("original", "intra")
            ]
            await _settle(lambda: coalescer.inflight == 2)
            backend.gate.set()
            results = await asyncio.gather(*waiters)
            await coalescer.close()
            return results

        results = asyncio.run(scenario())
        assert backend.batches == [2]
        assert [r.batch_size for r in results] == [2, 2]
        assert results[0].result["version"] == "original"
        assert results[1].result["version"] == "intra"

    def test_max_batch_splits_batches(self):
        backend = GatedExecutor()
        backend.gate.set()

        async def scenario():
            coalescer = Coalescer(executor=backend, store=None, max_batch=1)
            for v in ("original", "intra"):
                await coalescer.submit(make_task(version=v))
            await coalescer.close()

        asyncio.run(scenario())
        assert backend.batches == [1, 1]


class TestBatching:
    def test_lone_submit_dispatches_without_waiting(self, monkeypatch):
        # Recorded rather than raised: a raise would kill the batcher and
        # leave the request hanging instead of failing the test.
        waits = []
        real_wait_for = asyncio.wait_for

        def recording_wait_for(*args, **kwargs):
            waits.append(args)
            return real_wait_for(*args, **kwargs)

        monkeypatch.setattr(asyncio, "wait_for", recording_wait_for)
        backend = GatedExecutor()
        backend.gate.set()

        async def scenario():
            coalescer = Coalescer(executor=backend, store=MemoryStore())
            result = await coalescer.submit(make_task())
            await coalescer.close()
            return result

        result = asyncio.run(scenario())
        assert waits == [], "a lone request waited for batch-mates"
        assert result.batch_size == 1
        assert backend.batches == [1]

    @pytest.mark.parametrize("queued, max_batch", [(3, 8), (5, 3)])
    def test_requests_queued_during_a_batch_form_the_next(self, queued, max_batch):
        backend = GatedExecutor()
        workloads = ["hf", "sar", "contour", "astro", "e_elem", "apsi"]
        tasks = [make_task(workload=w) for w in workloads[: queued + 1]]

        async def scenario():
            coalescer = Coalescer(
                executor=backend, store=MemoryStore(), max_batch=max_batch
            )
            first = asyncio.ensure_future(coalescer.submit(tasks[0]))
            # The first request's batch is in the backend before the
            # rest arrive, so they can only queue behind it.
            await _settle(lambda: backend.entered == 1)
            rest = [asyncio.ensure_future(coalescer.submit(t)) for t in tasks[1:]]
            await _settle(lambda: coalescer.inflight == queued + 1)
            backend.gate.set()
            results = await asyncio.gather(first, *rest)
            await coalescer.close()
            return results

        results = asyncio.run(scenario())
        next_batch = min(queued, max_batch)
        assert [r.batch_size for r in results] == (
            [1] + [next_batch] * next_batch + [queued - next_batch] * (queued - next_batch)
        )


class TestFailure:
    def test_backend_error_reaches_every_waiter(self):
        async def scenario():
            coalescer = Coalescer(executor=FailingExecutor(), store=None)
            task = make_task()
            waiters = [
                asyncio.ensure_future(coalescer.submit(task)) for _ in range(3)
            ]
            results = await asyncio.gather(*waiters, return_exceptions=True)
            # The failed key must not stay in flight: a later submit gets
            # a fresh attempt, not the stale broken future.
            assert coalescer.inflight == 0
            with pytest.raises(RuntimeError):
                await coalescer.submit(task)
            await coalescer.close()
            return results

        results = asyncio.run(scenario())
        assert len(results) == 3
        assert all(isinstance(r, RuntimeError) for r in results)


class TestValidation:
    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            Coalescer(max_batch=0)

    def test_submitted_defaults(self):
        s = Submitted({"x": 1})
        assert not s.cached and not s.coalesced and s.batch_size == 0
