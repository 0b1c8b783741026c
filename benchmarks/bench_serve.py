"""Benchmark for the serving layer: closed-loop load, cold vs warm.

A :class:`MappingServer` on an ephemeral port (the same object ``repro
serve`` runs) takes a closed-loop load — a handful of client threads,
each issuing the next request as soon as the previous answer lands —
over a fixed mix of (workload, mapper) keys.  Two passes over an
initially empty :class:`ResultStore`:

* **cold** — every distinct key simulates once; repeats within the pass
  coalesce onto in-flight work or hit the freshly warmed store;
* **warm** — the same load again: the store answers everything, zero
  simulations, and the latency distribution collapses to I/O.

A third pass runs the cold load on a second server whose backend is a
``workers=2`` process pool.  It must answer with the serial pass's
result documents (wall clock stripped) and fork exactly one pool for
the server's life; its timing is informational, with no speed bound
(with the clients in the same process, a 2-core host serves this load
no faster on the pool than serially).

Printed per pass: throughput plus p50/p99 latency; the assertions
require the warm pass to simulate nothing and beat the cold pass.
"""

from __future__ import annotations

import contextlib
import threading
import time

import pytest

from repro.exec.executor import ExperimentExecutor
from repro.exec.store import ResultStore
from repro.experiments.report import ExperimentReport
from repro.serve.client import ServeClient
from repro.serve.server import MappingServer
from repro.telemetry import MetricsRegistry, declare_pipeline_metrics

WORKLOADS = ("hf", "sar")
MAPPERS = ("original", "inter", "inter+sched")
SCALE = 8
CLIENTS = 4
REQUESTS = 48


@contextlib.contextmanager
def _serving(store_dir, executor=None):
    """A MappingServer over ``store_dir`` in a thread: ``(server, registry)``."""
    registry = MetricsRegistry()
    declare_pipeline_metrics(registry)
    server = MappingServer(
        port=0,
        executor=executor,
        store=ResultStore(store_dir),
        registry=registry,
    )
    thread = threading.Thread(
        target=lambda: server.serve_forever(install_signals=False),
        name="bench-serve",
        daemon=True,
    )
    thread.start()
    assert server.ready.wait(30.0)
    try:
        yield server, registry
    finally:
        server.request_shutdown()
        thread.join(30.0)


@pytest.fixture()
def serve_harness(tmp_path):
    with _serving(tmp_path / "serve-cache") as harness:
        yield harness


def _url(server: MappingServer) -> str:
    return f"http://127.0.0.1:{server.port}"


def _run_pass(url: str) -> tuple[float, list[float], dict]:
    """Closed-loop pass: CLIENTS threads drain a shared request list.

    Returns the wall time, the sorted latencies and each key's result
    document with its wall-clock field stripped.
    """
    mix = [
        (WORKLOADS[i % len(WORKLOADS)], MAPPERS[i % len(MAPPERS)])
        for i in range(REQUESTS)
    ]
    lock = threading.Lock()
    latencies: list[float] = []
    results: dict[tuple[str, str], dict] = {}
    errors: list[Exception] = []

    def worker():
        with ServeClient(url, timeout=120.0) as client:
            while True:
                with lock:
                    if not mix:
                        return
                    workload, mapper = mix.pop()
                t0 = time.perf_counter()
                try:
                    result = client.experiment(workload, mapper, scale=SCALE).result
                except Exception as exc:  # noqa: BLE001 - failed pass below
                    with lock:
                        errors.append(exc)
                    return
                with lock:
                    latencies.append(time.perf_counter() - t0)
                    result = dict(result)
                    result.pop("mapping_time_s")
                    results.setdefault((workload, mapper), result)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(CLIENTS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(300.0)
    wall = time.perf_counter() - t0
    assert not errors, errors[0]
    assert len(latencies) == REQUESTS
    return wall, sorted(latencies), results


def _pct(sorted_values: list[float], q: float) -> float:
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def test_serve_cold_vs_warm(benchmark, serve_harness, report_sink, tmp_path):
    server, registry = serve_harness
    url = _url(server)
    distinct = len(WORKLOADS) * len(MAPPERS)

    cold_wall, cold_lat, cold_results = _run_pass(url)
    cold_sims = registry.counter("simulator.simulations").value
    # Coalescing + the store bound the cold pass: at most one simulation
    # per distinct key, no matter how often the mix repeats it.
    assert 0 < cold_sims <= distinct
    assert len(cold_results) == distinct

    warm_wall, warm_lat, warm_results = benchmark.pedantic(
        lambda: _run_pass(url), rounds=1, iterations=1
    )
    warm_sims = registry.counter("simulator.simulations").value - cold_sims
    assert warm_sims == 0
    assert warm_results == cold_results

    # The cold load again, on a fresh store and a two-worker pool.
    executor = ExperimentExecutor(workers=2)
    pools = []
    make_pool = executor._make_pool

    def counted_pool():
        pools.append(make_pool())
        return pools[-1]

    executor._make_pool = counted_pool
    with _serving(tmp_path / "pooled-cache", executor) as (pooled, pooled_registry):
        pool_wall, pool_lat, pool_results = _run_pass(_url(pooled))
    pool_sims = pooled_registry.counter("simulator.simulations").value
    assert pool_results == cold_results
    assert len(pools) == 1, f"{len(pools)} pools for one server's life"

    rows = []
    for label, wall, lat, sims in (
        ("cold", cold_wall, cold_lat, cold_sims),
        ("warm", warm_wall, warm_lat, warm_sims),
        ("cold, workers=2", pool_wall, pool_lat, pool_sims),
    ):
        rows.append(
            [
                label,
                str(REQUESTS),
                str(sims),
                f"{REQUESTS / wall:.1f}",
                f"{_pct(lat, 0.50) * 1e3:.1f}",
                f"{_pct(lat, 0.99) * 1e3:.1f}",
            ]
        )
    report_sink(
        ExperimentReport(
            "bench serve",
            f"closed loop, {CLIENTS} clients, {distinct} distinct keys "
            f"(scale {SCALE})",
            ["pass", "requests", "sims", "req/s", "p50 (ms)", "p99 (ms)"],
            rows,
            summary={
                "cold_p99_ms": _pct(cold_lat, 0.99) * 1e3,
                "warm_p99_ms": _pct(warm_lat, 0.99) * 1e3,
                "warm_speedup": cold_wall / warm_wall if warm_wall else float("inf"),
            },
        )
    )
    assert warm_wall < cold_wall
