"""Serve-side observability: request ids, /debugz and shared spans.

Every response — success, typed error, 429 — must carry
``X-Repro-Request-Id``; with a live tracer the id is the trace id of
the request's span tree, retrievable from ``/debugz``.
"""

import threading

import pytest

from repro.obs.tracer import Span, Tracer, build_trees
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import MappingServer  # noqa: F401 - harness backs it

from tests.serve.test_server import GatedExecutor, ServerHarness


class TestRequestId:
    def test_every_success_gets_a_fresh_id(self):
        with ServerHarness() as h, h.client() as c:
            r1 = c.experiment("hf", "inter", scale=16)
            r2 = c.experiment("hf", "inter", scale=16)
        assert r1.request_id.startswith("req-")
        assert r2.request_id.startswith("req-")
        assert r1.request_id != r2.request_id, "cache hits correlate too"

    def test_client_supplied_id_is_echoed(self):
        with ServerHarness() as h, h.client() as c:
            r = c.experiment("hf", "inter", scale=16, request_id="my-corr-1")
        assert r.request_id == "my-corr-1"

    def test_malformed_id_is_replaced_not_echoed(self):
        with ServerHarness() as h, h.client() as c:
            r = c.experiment(
                "hf", "inter", scale=16, request_id="bad id\twith space"
            )
        assert r.request_id.startswith("req-")
        assert "bad id" not in r.request_id

    def test_typed_errors_carry_the_id(self):
        with ServerHarness() as h, h.client() as c:
            with pytest.raises(ServeError) as e:
                c.experiment("no-such-workload", "inter", scale=16)
            assert e.value.code == "unknown_workload"
            assert e.value.request_id.startswith("req-")

    def test_404_and_405_carry_the_id(self):
        with ServerHarness() as h, h.client() as c:
            status, _, headers = c._request("GET", "/no/such/path")
            assert status == 404
            assert headers["x-repro-request-id"].startswith("req-")
            status, _, headers = c._request("GET", "/v1/experiment")
            assert status == 405
            assert headers["x-repro-request-id"].startswith("req-")

    def test_429_carries_the_id(self):
        backend = GatedExecutor()
        outcomes = {}

        def fire(version, url):
            with ServeClient(url, timeout=60.0) as c:
                outcomes[version] = c.experiment("hf", version, scale=16)

        with ServerHarness(executor=backend, max_queue=2) as h:
            threads = [
                threading.Thread(target=fire, args=(v, h.url), daemon=True)
                for v in ("original", "intra")
            ]
            try:
                for t in threads:
                    t.start()
                h.wait_statusz(lambda d: d["admission"]["active"] == 2)
                with h.client() as c, pytest.raises(ServeError) as e:
                    c.experiment("sar", "inter", scale=16)
                assert e.value.http_status == 429
                assert e.value.request_id.startswith("req-")
            finally:
                backend.gate.set()
            for t in threads:
                t.join(60.0)
        assert len(outcomes) == 2


class TestDebugz:
    def test_tracing_off_by_default(self):
        with ServerHarness() as h, h.client() as c:
            c.experiment("hf", "inter", scale=16)
            doc = c.debugz()
        assert doc["record"] == "repro-serve-debug"
        assert doc["tracer"]["enabled"] is False
        assert doc["recent"] == []
        assert doc["slo"]["spans"] == 0

    def test_traced_request_yields_full_tree(self):
        with ServerHarness(tracer=Tracer()) as h, h.client() as c:
            r = c.experiment("hf", "inter", scale=16, request_id="trace-me-1")
            doc = c.debugz()
        assert r.request_id == "trace-me-1"
        assert doc["tracer"]["enabled"] is True

        spans = [Span.from_dict(d) for d in doc["recent"]]
        mine = [s for s in spans if s.trace_id == "trace-me-1"]
        (root,) = (t for t in build_trees(mine)
                   if t["span"].name == "request.experiment")
        # The root span IS the request: its trace id is the header id.
        assert root["span"].trace_id == "trace-me-1"
        assert root["span"].attrs["source"] == "simulated"
        names = {s.name for s in mine}
        assert {"coalesce.queue", "exec.task", "prepare", "mapping",
                "simulate", "store.put"} <= names

        stages = doc["slo"]["stages"]
        assert stages["simulate"]["p50_s"] > 0.0
        assert stages["store"]["p50_s"] > 0.0
        assert stages["request"]["count"] >= 1

    def test_coalesced_requests_share_one_simulation_span(self):
        backend = GatedExecutor()
        n = 4
        responses = [None] * n
        errors = []

        def fire(i, url):
            try:
                with ServeClient(url, timeout=60.0) as c:
                    responses[i] = c.experiment(
                        "hf", "inter", scale=16, request_id=f"corr-{i}"
                    )
            except Exception as exc:  # noqa: BLE001 - surfaced in assertions
                errors.append(exc)

        with ServerHarness(executor=backend, tracer=Tracer()) as h:
            threads = [
                threading.Thread(target=fire, args=(i, h.url), daemon=True)
                for i in range(n)
            ]
            try:
                for t in threads:
                    t.start()
                h.wait_statusz(
                    lambda d: d["coalescer"]["coalesced"] == n - 1
                    and d["coalescer"]["inflight"] == 1
                )
            finally:
                backend.gate.set()
            for t in threads:
                t.join(60.0)
            with h.client() as c:
                doc = c.debugz()

        assert errors == []
        spans = [Span.from_dict(d) for d in doc["recent"]]
        tasks = [s for s in spans if s.name == "exec.task"]
        assert len(tasks) == 1, "one simulation for n coalesced requests"
        shared = tasks[0].span_id

        # N logical request roots, one per correlation id.
        roots = [s for s in spans if s.name == "request.experiment"]
        assert sorted(s.trace_id for s in roots) == [
            f"corr-{i}" for i in range(n)
        ]
        # The n-1 waiters all reference the leader's simulation span.
        waits = [s for s in spans if s.name == "coalesce.wait"]
        assert len(waits) == n - 1
        assert all(w.attrs["shared_span"] == shared for w in waits)
        # The leader's own tree contains it via its queue span.
        by_id = {s.span_id: s for s in spans}
        assert by_id[tasks[0].parent_id].name == "coalesce.queue"
