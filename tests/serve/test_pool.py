"""The serving tier on a process pool: one pool for the server's life.

A ``workers=2`` :class:`MappingServer` holds its executor's ``with``
block from start-up to the end of the drain, so every micro-batch runs
on one pool, a worker that dies costs one restart at the next batch,
and no worker outlives ``serve_forever``.  Every batch here carries at
least two requests: a one-payload batch runs serially and never
touches the pool.
"""

import dataclasses
import logging
import multiprocessing
import socket

import pytest

from repro.exec import executor as executor_module
from repro.exec.executor import ExperimentExecutor, task_payload
from repro.experiments.config import scaled_config
from repro.serve.server import MappingServer
from repro.util.fingerprint import config_fingerprint

from tests.exec.test_executor import _exit_in_worker, _strip_wallclock
from tests.serve.test_server import ServerHarness

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)

#: Three micro-batches of two distinct cold keys each.
BATCHES = [
    [("hf", "original"), ("sar", "original")],
    [("sar", "inter"), ("contour", "inter")],
    [("astro", "intra"), ("apsi", "inter+sched")],
]


def pooled_executor() -> tuple[ExperimentExecutor, list]:
    """A ``workers=2`` executor plus the list of pools it makes."""
    ex = ExperimentExecutor(workers=2, backoff_s=0.0, mp_context="fork")
    made = []
    make = ex._make_pool

    def counted():
        pool = make()
        made.append(pool)
        return pool

    ex._make_pool = counted
    return ex, made


def send(client, pairs):
    """One /v1/batch round trip: its items land in one micro-batch."""
    r = client.batch([{"workload": w, "version": v} for w, v in pairs])
    assert r.sources == ("simulated",) * len(pairs), r.items
    return r.items


def live_children() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


@pytest.fixture
def broke_warnings():
    """The ``process pool broke`` warnings the executor logs."""
    records: list[logging.LogRecord] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    log = logging.getLogger("repro.exec.executor")
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.WARNING)
    yield lambda: [
        r for r in records if "process pool broke" in r.getMessage()
    ]
    log.removeHandler(handler)
    log.setLevel(level)


class TestOnePoolPerServer:
    def test_batches_share_one_pool(self):
        ex, made = pooled_executor()
        with ServerHarness(executor=ex) as h, h.client() as c:
            for pairs in BATCHES:
                send(c, pairs)
            status = c.statusz()
        assert status["coalescer"]["batches"] == len(BATCHES)
        assert len(made) == 1
        assert h.registry.counter("exec.pool_restarts").value == 0

    def test_no_pool_worker_outlives_serve_forever(self):
        ex, made = pooled_executor()
        before = live_children()
        with ServerHarness(executor=ex) as h, h.client() as c:
            for pairs in BATCHES[:2]:
                send(c, pairs)
            # The pool stays up between batches, held by the server.
            workers = live_children() - before
            assert workers
        assert h.exit_code == 0
        assert len(made) == 1
        assert not workers & live_children()

    def test_failed_start_leaves_no_block_open(self):
        ex, made = pooled_executor()
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            server = MappingServer(port=taken.getsockname()[1], executor=ex)
            with pytest.raises(OSError):
                server.serve_forever(install_signals=False)
        # Outside any block again: a batch's pool is joined on return.
        before = live_children()
        config = scaled_config(16)
        ex.run_payloads(
            [task_payload("hf", config, "original"), task_payload("sar", config, "inter")]
        )
        assert len(made) == 1
        assert not live_children() - before

    def test_dead_worker_costs_one_restart_at_the_next_batch(
        self, monkeypatch, broke_warnings
    ):
        # The pool forks after the patch, so its workers die on
        # hf/original; the in-process retry in the server survives it.
        monkeypatch.setattr(executor_module, "run_payload", _exit_in_worker)
        ex, made = pooled_executor()
        with ServerHarness(executor=ex) as h, h.client() as c:
            send(c, BATCHES[0])
            assert len(broke_warnings()) == 1
            # The broken pool is dropped; none is made until a batch needs one.
            assert len(made) == 1
            assert h.registry.counter("exec.pool_restarts").value == 0
            send(c, BATCHES[1])
            assert len(made) == 2
            assert h.registry.counter("exec.pool_restarts").value == 1
            assert c.statusz()["backend"]["failures"] == 0
        assert len(broke_warnings()) == 1


class TestSharedMapping:
    def test_requests_sharing_a_mapping_map_once(self):
        # Three configs that differ only in cache size share one MappingKey.
        base = scaled_config(16)
        configs = [
            config_fingerprint(dataclasses.replace(base, cache_elems=sizes))
            for sizes in ((1024, 3072, 12288), (512, 2048, 8192), (2048, 4096, 16384))
        ]
        items = [
            {"workload": "sar", "version": "inter+sched", "config": fp}
            for fp in configs
        ]
        k = len(items)
        with ServerHarness() as h, h.client() as c:
            r = c.batch(items)
            assert r.sources == ("simulated",) * k
            together = [_strip_wallclock(doc["result"]) for doc in r.items]
            reused = h.registry.counter("prepare.reused").value
        with ServerHarness() as h, h.client() as c:
            alone = [
                _strip_wallclock(c.experiment(**item).result) for item in items
            ]
            assert h.registry.counter("prepare.reused").value == 0
        assert together == alone
        assert reused == k - 1
