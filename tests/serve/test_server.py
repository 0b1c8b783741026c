"""End-to-end tests for the serving front end over real sockets.

Each test runs a :class:`MappingServer` on an ephemeral port in a
background thread (the same object ``repro serve`` drives) and talks to
it with the real clients, covering the acceptance contract: concurrent
identical requests coalesce to one simulation with byte-identical
payloads, a warm-store restart simulates nothing, the full admission
queue answers 429 + ``Retry-After``, and SIGINT drains to exit code 0.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.exec.executor import ExperimentExecutor
from repro.exec.store import MemoryStore, ResultStore
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import MappingServer
from repro.shard.ring import HashRing
from repro.shard.router import ShardRouter
from repro.telemetry import MetricsRegistry, declare_pipeline_metrics


def metrics_text(url: str) -> str:
    """The Prometheus exposition a front end serves on ``/metrics``."""
    with urllib.request.urlopen(f"{url}/metrics", timeout=30.0) as resp:
        return resp.read().decode("utf-8")


class GatedExecutor(ExperimentExecutor):
    """Serial backend that holds every batch until the test opens the gate."""

    def __init__(self):
        super().__init__(workers=1)
        self.gate = threading.Event()
        self.batches = []

    def run_payloads(self, payloads, on_result=None):
        assert self.gate.wait(30.0), "test never opened the gate"
        self.batches.append(len(payloads))
        return super().run_payloads(payloads, on_result)

    def __repr__(self):
        return "GatedExecutor()"


class ServerHarness:
    """A MappingServer running in a daemon thread, torn down on exit."""

    def __init__(self, **kwargs):
        self.registry = kwargs.pop("registry", None) or MetricsRegistry()
        declare_pipeline_metrics(self.registry)
        kwargs.setdefault("store", MemoryStore())
        kwargs.setdefault("default_scale", 16)
        self.server = MappingServer(port=0, registry=self.registry, **kwargs)
        self.exit_code = None
        self._thread = threading.Thread(
            target=self._run, name="serve-test", daemon=True
        )

    def _run(self):
        self.exit_code = self.server.serve_forever(install_signals=False)

    def __enter__(self):
        self._thread.start()
        assert self.server.ready.wait(30.0), "server never became ready"
        return self

    def __exit__(self, *exc):
        self.server.request_shutdown()
        self._thread.join(30.0)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.port}"

    def client(self, timeout: float = 60.0) -> ServeClient:
        return ServeClient(self.url, timeout=timeout)

    def wait_statusz(self, predicate, timeout_s=10.0):
        """Poll /statusz until ``predicate(doc)`` holds."""
        deadline = time.monotonic() + timeout_s
        with self.client() as c:
            while True:
                doc = c.statusz()
                if predicate(doc):
                    return doc
                assert time.monotonic() < deadline, f"statusz never settled: {doc}"
                time.sleep(0.01)


@pytest.fixture(scope="module")
def front_ends():
    """A MappingServer and a 1-shard ShardRouter in front of it, in threads."""

    def start(front_end):
        thread = threading.Thread(
            target=lambda: front_end.serve_forever(install_signals=False),
            daemon=True,
        )
        thread.start()
        assert front_end.ready.wait(30.0), f"{front_end!r} never became ready"
        return front_end, thread

    server = MappingServer(port=0, store=MemoryStore(), default_scale=16)
    running = [start(server)]
    router = ShardRouter(
        ring=HashRing(["shard-0"]),
        backends={"shard-0": ("127.0.0.1", server.port)},
        port=0,
    )
    running.append(start(router))
    yield {type(f).__name__: f"http://127.0.0.1:{f.port}" for f, _ in running}
    for front_end, thread in reversed(running):
        front_end.request_shutdown()
        thread.join(30.0)
        assert not thread.is_alive(), f"{front_end!r} did not drain"


def _wrong_methods():
    for front_end in (MappingServer, ShardRouter):
        for path, (method, _) in front_end.ENDPOINTS.items():
            for wrong in ("GET", "POST", "DELETE"):
                if wrong != method:
                    yield pytest.param(
                        front_end.__name__,
                        path,
                        method,
                        wrong,
                        id=f"{front_end.__name__}-{wrong}-{path}",
                    )


class TestOpsEndpoints:
    def test_health_statusz_metrics(self):
        with ServerHarness() as h, h.client() as c:
            assert c.health() == {"status": "ok"}
            status = c.statusz()
            assert status["record"] == "repro-serve-status"
            assert status["admission"]["max_queue"] == 64
            assert status["backend"]["simulations"] == 0
            assert {"retries", "timeouts", "failures"} <= set(status["backend"])
            assert status["store"]["entries"] == 0
            text = metrics_text(h.url)
            assert "serve_requests" in text
            assert "exec_retries" in text
        assert h.exit_code == 0

    @pytest.mark.parametrize("front_end, path, method, wrong", _wrong_methods())
    def test_unknown_endpoint_and_methods(
        self, front_ends, front_end, path, method, wrong
    ):
        with ServeClient(front_ends[front_end], timeout=60.0) as c:
            status, body, _ = c._request(wrong, path)
            assert status == 405
            assert json.loads(body)["error"] == {
                "code": "method_not_allowed",
                "message": f"{path} takes {method}, not {wrong}",
            }
            status, body, _ = c._request(method, path + "/no/such/path")
            assert status == 404
            assert json.loads(body)["error"] == {
                "code": "not_found",
                "message": f"no such endpoint {path + '/no/such/path'!r}",
            }
            status, body, _ = c._request("POST", "/v1/experiment", b"{nope")
            assert status == 400
            assert json.loads(body)["error"]["code"] == "bad_json"

    @pytest.mark.parametrize("front_end", ["MappingServer", "ShardRouter"])
    @pytest.mark.parametrize(
        "engine", [{"engine": "bogus"}, {"colour": "red"}, {"sync_counts": [1]}]
    )
    def test_engine_options_rejected_before_queueing(
        self, front_ends, front_end, engine
    ):
        with ServeClient(front_ends[front_end], timeout=60.0) as c:
            with pytest.raises(ServeError) as e:
                c.experiment("hf", "inter", scale=16, engine=engine)
        assert e.value.code == "bad_request"
        assert e.value.http_status == 400

    def test_typed_validation_errors(self):
        with ServerHarness() as h, h.client() as c:
            with pytest.raises(ServeError) as e:
                c.experiment("no-such-workload", "inter")
            assert e.value.code == "unknown_workload"
            assert e.value.http_status == 400


class TestServing:
    def test_cold_then_warm_is_byte_identical(self):
        with ServerHarness() as h, h.client() as c:
            r1 = c.experiment("hf", "inter", scale=16)
            r2 = c.experiment("hf", "inter", scale=16)
        assert r1.source == "simulated"
        assert r2.source == "cache"
        assert r1.body == r2.body
        assert r1.digest == r2.digest
        assert h.registry.counter("simulator.simulations").value == 1
        assert h.exit_code == 0

    def test_result_matches_direct_simulation(self):
        from repro.experiments.config import scaled_config
        from repro.simulator.runner import run_experiment
        from repro.simulator.serialization import result_to_dict
        from repro.workloads.suite import get_workload

        direct = result_to_dict(
            run_experiment(get_workload("sar"), scaled_config(16), "inter")
        )
        with ServerHarness() as h, h.client() as c:
            served = c.experiment("sar", "inter", scale=16).result
        direct.pop("mapping_time_s")
        served.pop("mapping_time_s")
        assert served == direct

    def test_concurrent_identical_requests_coalesce(self):
        backend = GatedExecutor()
        n = 5
        responses = [None] * n
        errors = []

        def fire(i, url):
            try:
                with ServeClient(url, timeout=60.0) as c:
                    responses[i] = c.experiment("hf", "inter", scale=16)
            except Exception as exc:  # noqa: BLE001 - surfaced in assertions
                errors.append(exc)

        with ServerHarness(executor=backend) as h:
            threads = [
                threading.Thread(target=fire, args=(i, h.url), daemon=True)
                for i in range(n)
            ]
            try:
                for t in threads:
                    t.start()
                # Every request must be parked on the one in-flight key
                # before the simulation is allowed to finish.
                h.wait_statusz(
                    lambda d: d["coalescer"]["coalesced"] == n - 1
                    and d["coalescer"]["inflight"] == 1
                )
            finally:
                backend.gate.set()
            for t in threads:
                t.join(60.0)

        assert errors == []
        assert backend.batches == [1]
        assert h.registry.counter("simulator.simulations").value == 1
        sources = sorted(r.source for r in responses)
        assert sources == ["coalesced"] * (n - 1) + ["simulated"]
        bodies = {r.body for r in responses}
        assert len(bodies) == 1, "coalesced responses must be byte-identical"
        assert h.exit_code == 0

    def test_backpressure_full_queue_gets_429(self):
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
                assert e.value.code == "overloaded"
                assert e.value.http_status == 429
                assert e.value.retry_after_s == 1.0
                rejected = h.wait_statusz(
                    lambda d: d["admission"]["rejected"] == 1
                )
                assert rejected["admission"]["max_queue"] == 2
            finally:
                backend.gate.set()
            for t in threads:
                t.join(60.0)

        assert len(outcomes) == 2
        assert all(r.status == 200 for r in outcomes.values())
        assert h.exit_code == 0

    def test_request_timeout_is_504(self):
        backend = GatedExecutor()
        with ServerHarness(executor=backend, request_timeout_s=0.05) as h:
            try:
                with h.client() as c, pytest.raises(ServeError) as e:
                    c.experiment("hf", "inter", scale=16)
                assert e.value.code == "timeout"
                assert e.value.http_status == 504
            finally:
                # Let the (shielded, still-running) simulation finish so
                # the drain has something it can actually wait out.
                backend.gate.set()
        assert h.exit_code == 0


class TestWarmRestart:
    def test_restart_on_warm_store_simulates_nothing(self, tmp_path):
        store_dir = tmp_path / "serve-cache"
        with ServerHarness(store=ResultStore(store_dir)) as h1, h1.client() as c:
            first = c.experiment("hf", "inter+sched", scale=16)
        assert first.source == "simulated"
        assert h1.exit_code == 0

        with ServerHarness(store=ResultStore(store_dir)) as h2, h2.client() as c:
            second = c.experiment("hf", "inter+sched", scale=16)
            status = c.statusz()
        assert second.source == "cache"
        assert second.body == first.body
        assert status["backend"]["simulations"] == 0
        assert h2.registry.counter("simulator.simulations").value == 0
        assert h2.exit_code == 0


@pytest.mark.skipif(os.name != "posix", reason="POSIX signals required")
class TestSignalDrain:
    def test_sigint_under_load_drains_and_exits_zero(self, tmp_path):
        import socket

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                str(port),
                "--scale",
                "16",
                "--cache",
                str(tmp_path / "cache"),
            ],
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        url = f"http://127.0.0.1:{port}"
        outcomes = []

        def fire(version):
            try:
                with ServeClient(url, timeout=60.0) as c:
                    outcomes.append(c.experiment("hf", version).status)
            except ServeError as exc:
                # A request that raced the drain gets the *typed* 503,
                # never a dropped connection.
                outcomes.append(exc.code)

        try:
            deadline = time.monotonic() + 30.0
            while True:
                try:
                    with ServeClient(url, timeout=5.0) as c:
                        assert c.health()["status"] == "ok"
                    break
                except OSError:
                    assert proc.poll() is None, "server died during startup"
                    assert time.monotonic() < deadline, "server never came up"
                    time.sleep(0.1)
            threads = [
                threading.Thread(target=fire, args=(v,), daemon=True)
                for v in ("original", "intra", "inter")
            ]
            for t in threads:
                t.start()
            time.sleep(0.3)
            proc.send_signal(signal.SIGINT)
            for t in threads:
                t.join(60.0)
            rc = proc.wait(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)

        assert rc == 0, "drain must exit 0"
        assert len(outcomes) == 3
        assert all(o == 200 or o == "draining" for o in outcomes)
        assert 200 in outcomes, "at least one in-flight request must drain"
