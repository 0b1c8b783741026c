"""Router tests over real sockets: an in-thread cluster.

Each test spins up N real :class:`MappingServer` workers (one store
partition each) plus the :class:`ShardRouter`, all on ephemeral ports
in daemon threads — the same objects ``repro shard serve`` wires up,
minus the subprocesses (covered by test_lifecycle).  The acceptance
contract under test: routed answers are byte-identical to a standalone
server, routing agrees with the ring (X-Repro-Shard), batches fan out
and reassemble in order, per-shard admission answers 429, ops
endpoints aggregate cluster-wide, and an in-flight drain loses nothing.
"""

import json
import threading

import pytest

from repro.exec.store import ResultStore
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import MappingServer
from repro.shard.partition import partition_dir, rebalance, shard_ids
from repro.shard.ring import HashRing
from repro.shard.router import ShardRouter
from repro.telemetry import MetricsRegistry, declare_pipeline_metrics

from tests.serve.test_server import GatedExecutor, ServerHarness, metrics_text

SCALE = 16  # small topology => ~40 ms per simulation


class ClusterHarness:
    """N in-thread shard workers behind an in-thread router."""

    def __init__(
        self,
        root,
        shards=3,
        executor_factory=None,
        max_inflight=64,
        max_queue=64,
    ):
        self.root = root
        self.ids = shard_ids(shards)
        self.ring = HashRing(self.ids)
        self.workers = {}
        self.threads = {}
        self.executors = {}
        for sid in self.ids:
            registry = MetricsRegistry()
            declare_pipeline_metrics(registry)
            executor = executor_factory() if executor_factory else None
            self.executors[sid] = executor
            self.workers[sid] = MappingServer(
                port=0,
                executor=executor,
                store=ResultStore(partition_dir(root, sid)),
                registry=registry,
                max_queue=max_queue,
                default_scale=SCALE,
                shard_id=sid,
            )
        self.registry = MetricsRegistry()
        declare_pipeline_metrics(self.registry)
        self.router = ShardRouter(
            ring=self.ring,
            backends={},
            port=0,
            store_root=root,
            registry=self.registry,
            max_inflight=max_inflight,
            default_scale=SCALE,
            stop_worker=self.stop_worker,
        )

    def stop_worker(self, sid):
        server = self.workers.pop(sid, None)
        if server is None:
            return 0
        server.request_shutdown()
        self.threads.pop(sid).join(30.0)
        return 0

    def __enter__(self):
        for sid, server in self.workers.items():
            thread = threading.Thread(
                target=lambda s=server: s.serve_forever(install_signals=False),
                name=f"worker-{sid}",
                daemon=True,
            )
            thread.start()
            self.threads[sid] = thread
        for sid, server in self.workers.items():
            assert server.ready.wait(30.0), f"{sid} never became ready"
            self.router.backends[sid] = ("127.0.0.1", server.port)
        rebalance(self.root, self.ring)  # what ShardCluster.start() does
        self._router_thread = threading.Thread(
            target=lambda: self.router.serve_forever(install_signals=False),
            name="router",
            daemon=True,
        )
        self._router_thread.start()
        assert self.router.ready.wait(30.0), "router never became ready"
        return self

    def __exit__(self, *exc):
        self.router.request_shutdown()
        self._router_thread.join(30.0)
        for sid in list(self.workers):
            self.stop_worker(sid)

    @property
    def url(self):
        return f"http://127.0.0.1:{self.router.port}"

    def client(self, timeout=60.0):
        return ServeClient(self.url, timeout=timeout)


KEYS = [
    dict(workload="hf", version="inter"),
    dict(workload="hf", version="intra"),
    dict(workload="sar", version="inter"),
    dict(workload="sar", version="inter+sched"),
    dict(workload="contour", version="inter"),
    dict(workload="astro", version="original"),
]


def _strip_measured(body: bytes) -> dict:
    """Response doc minus the one wall-clock field a fresh run measures."""
    doc = json.loads(body)
    doc.get("result", {}).pop("mapping_time_s", None)
    return doc


class TestParity:
    def test_routed_answers_match_standalone(self, tmp_path):
        with ServerHarness() as single, single.client() as sc:
            want = {}
            for kw in KEYS:
                resp = sc.experiment(scale=SCALE, **kw)
                want[resp.digest] = _strip_measured(resp.body)
        with ClusterHarness(tmp_path) as cluster, cluster.client() as cc:
            for kw in KEYS:
                resp = cc.experiment(scale=SCALE, **kw)
                assert resp.digest in want
                assert _strip_measured(resp.body) == want[resp.digest], kw
                # routing is attributable: the answering shard is the
                # ring owner of the key digest the worker derived
                assert resp.shard == cluster.ring.route(resp.digest)

    def test_resize_from_one_shard_is_warm_and_byte_identical(self, tmp_path):
        """The acceptance path: grow 1 shard -> 3 over the same root.

        Warm bodies are the canonical stored bytes, so here identity is
        exact — and the resized cluster must re-simulate nothing.
        """
        with ClusterHarness(tmp_path, shards=1) as seed, seed.client() as sc:
            for kw in KEYS:
                sc.experiment(scale=SCALE, **kw)
            warm = {}  # cache-served canonical bytes from the 1-shard run
            for kw in KEYS:
                resp = sc.experiment(scale=SCALE, **kw)
                assert resp.source == "cache"
                warm[resp.digest] = resp.body
        with ClusterHarness(tmp_path, shards=3) as grown, grown.client() as gc:
            seen_shards = set()
            for kw in KEYS:
                resp = gc.experiment(scale=SCALE, **kw)
                assert resp.source == "cache", kw
                assert resp.body == warm[resp.digest]
                seen_shards.add(resp.shard)
            assert len(seen_shards) > 1, "keys should spread across shards"
            assert gc.statusz()["totals"]["simulations"] == 0

    def test_second_hit_is_warm_and_identical(self, tmp_path):
        with ClusterHarness(tmp_path) as cluster, cluster.client() as c:
            first = c.experiment(scale=SCALE, workload="hf", version="inter")
            assert first.source == "simulated"
            again = c.experiment(scale=SCALE, workload="hf", version="inter")
            assert again.source == "cache"
            assert again.shard == first.shard
            assert again.body == first.body


class TestBatch:
    def test_batch_fans_out_and_reassembles_in_order(self, tmp_path):
        requests = [dict(scale=SCALE, **kw) for kw in KEYS]
        with ClusterHarness(tmp_path) as cluster, cluster.client() as c:
            singles = [c.experiment(**kw) for kw in requests]
            resp = c.batch(requests)
            assert resp.batch_size == len(requests)
            assert len(resp.items) == len(requests)
            assert len(resp.sources) == len(requests)
            # a batch right after the singles is warm everywhere
            assert set(resp.sources) <= {"cache", "coalesced"}
            for item, single in zip(resp.items, singles):
                assert item["record"] == "repro-serve-response"
                assert item["digest"] == single.digest

    def test_invalid_batch_item_rejects_with_its_index(self, tmp_path):
        """Validation mirrors the standalone server: reject up front."""
        with ClusterHarness(tmp_path, shards=2) as cluster, cluster.client() as c:
            with pytest.raises(ServeError) as e:
                c.batch(
                    [
                        dict(scale=SCALE, workload="hf", version="inter"),
                        dict(scale=SCALE, workload="no-such", version="inter"),
                    ]
                )
            assert e.value.code == "unknown_workload"
            assert "requests[1]" in e.value.message

    def test_unreachable_shard_errors_stay_in_band(self, tmp_path):
        """A dead backend fails only its own items, as typed error docs."""
        from repro.serve.protocol import encode_doc, parse_request, request_doc

        with ClusterHarness(tmp_path, shards=2) as cluster, cluster.client() as c:
            by_shard = {}
            for kw in KEYS:
                digest = cluster.router._routing_digest(
                    parse_request(encode_doc(request_doc(scale=SCALE, **kw)))
                )
                by_shard.setdefault(cluster.ring.route(digest), []).append(kw)
            assert len(by_shard) == 2, "keys all hashed to one shard"
            (live, live_keys), (dead, dead_keys) = sorted(by_shard.items())
            # crash (not drain) the second shard's worker
            cluster.stop_worker(dead)
            resp = c.batch(
                [
                    dict(scale=SCALE, **live_keys[0]),
                    dict(scale=SCALE, **dead_keys[0]),
                ]
            )
            ok, bad = resp.items
            assert ok["record"] == "repro-serve-response"
            assert bad["record"] == "repro-serve-error"
            assert bad["error"]["code"] == "bad_gateway"
            assert resp.sources[0] in ("simulated", "cache", "coalesced")
            assert resp.sources[1] == "error"


class TestAdmission:
    def test_router_answers_429_per_shard(self, tmp_path):
        with ClusterHarness(
            tmp_path, shards=2, executor_factory=GatedExecutor, max_inflight=1
        ) as cluster:
            # occupy one shard with a gated request, then hit the same
            # shard again: the router must reject before the worker sees it
            first = cluster.client(timeout=60.0)
            hot = dict(scale=SCALE, workload="hf", version="inter")
            background = threading.Thread(
                target=lambda: first.experiment(**hot), daemon=True
            )
            background.start()
            deadline_doc = None
            try:
                # wait until the router counts the in-flight request
                import time

                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if any(cluster.router._inflight.values()):
                        break
                    time.sleep(0.01)
                with cluster.client() as c, pytest.raises(ServeError) as e:
                    c.experiment(**hot)
                assert e.value.code == "overloaded"
                assert e.value.http_status == 429
                assert e.value.retry_after_s is not None
            finally:
                for executor in cluster.executors.values():
                    executor.gate.set()
                background.join(30.0)
                first.close()
            text = metrics_text(cluster.url)
            assert 'shard_rejected_total' in text


class TestOpsAggregation:
    def test_statusz_metrics_healthz_aggregate(self, tmp_path):
        with ClusterHarness(tmp_path) as cluster, cluster.client() as c:
            c.experiment(scale=SCALE, workload="hf", version="inter")
            assert c.health()["status"] == "ok"
            doc = c.statusz()
            assert doc["record"] == "repro-shard-status"
            assert doc["ring"]["members"] == list(cluster.ring.members)
            assert set(doc["shards"]) == set(cluster.ids)
            # store stats are real per-partition filesystem counts;
            # registry-derived totals are only exact in the subprocess
            # deployment (in-thread workers share the ambient registry)
            assert doc["totals"]["store_entries"] == 1
            assert doc["totals"]["simulations"] >= 1
            text = metrics_text(cluster.url)
            for sid in cluster.ids:
                assert f'shard="{sid}"' in text
            assert 'shard="router"' in text

    def test_worker_statusz_names_its_shard(self, tmp_path):
        with ClusterHarness(tmp_path, shards=2) as cluster:
            sid = cluster.ids[0]
            with ServeClient(
                f"http://127.0.0.1:{cluster.workers[sid].port}"
            ) as wc:
                doc = wc.statusz()
                assert doc["shard"] == sid


class TestDrain:
    def test_drain_moves_warm_keys_and_keeps_serving(self, tmp_path):
        with ClusterHarness(tmp_path) as cluster, cluster.client(120.0) as c:
            warm = {}
            for kw in KEYS:
                resp = c.experiment(scale=SCALE, **kw)
                warm[resp.digest] = (resp.body, resp.shard)
            victim = next(iter({shard for _, shard in warm.values()}))
            doc = c.admin_drain(victim)
            assert doc["record"] == "repro-shard-drain"
            assert victim not in doc["members"]
            assert victim not in cluster.ring
            # every key — including the drained shard's — answers warm,
            # byte-identical, with zero new simulations
            for kw in KEYS:
                resp = c.experiment(scale=SCALE, **kw)
                body, old_shard = warm[resp.digest]
                assert resp.body == body
                assert resp.source == "cache"
                assert resp.shard != victim
                if old_shard == victim:
                    assert resp.shard == cluster.ring.route(resp.digest)
            # every post-drain answer came from cache (asserted above):
            # that is the zero-re-simulation proof at the protocol level
            status = c.statusz()
            assert status["router"]["drains"] == 1

    def test_last_shard_refuses_to_drain(self, tmp_path):
        with ClusterHarness(tmp_path, shards=1) as cluster, cluster.client() as c:
            with pytest.raises(ServeError) as e:
                c.admin_drain("shard-0")
            assert e.value.code == "bad_request"

    def test_unknown_shard_drain_rejected(self, tmp_path):
        with ClusterHarness(tmp_path, shards=2) as cluster, cluster.client() as c:
            with pytest.raises(ServeError) as e:
                c.admin_drain("shard-9")
            assert e.value.code == "bad_request"
