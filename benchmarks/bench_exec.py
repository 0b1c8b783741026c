"""Benchmarks for the repro.exec runtime: pool speedup and cache warmth.

Two wall-clock comparisons on the Figure 12 topology sweep:

* **workers 1 vs 4** — the sweep's tasks are embarrassingly parallel,
  so a 4-worker pool should beat the serial run (the exact ratio is
  machine-dependent; the assertion only requires parity-or-better with
  slack, the printed table carries the measured ratio);
* **cold vs warm cache** — a second run against a populated
  :class:`ResultStore` should be dominated by store reads, far faster
  than simulating, and must simulate nothing at all.
"""

from __future__ import annotations

import time

import pytest

from repro.exec import (
    ExperimentExecutor,
    ResultStore,
    SweepPlan,
    execute_plan,
)
from repro.experiments import figure12
from repro.experiments.report import ExperimentReport
from repro.telemetry import MetricsRegistry, use_registry


def _figure12_plan(config) -> SweepPlan:
    plan = SweepPlan()
    for cfg, versions in figure12.sweep(config):
        plan.add_suite(cfg, versions)
    return plan


@pytest.fixture(scope="module")
def sweep_plan(small_config):
    return _figure12_plan(small_config)


def test_exec_pool_speedup(benchmark, sweep_plan, report_sink):
    t0 = time.perf_counter()
    serial = execute_plan(sweep_plan, executor=ExperimentExecutor(workers=1))
    serial_s = time.perf_counter() - t0

    def pooled():
        return execute_plan(
            sweep_plan, executor=ExperimentExecutor(workers=4)
        )

    t0 = time.perf_counter()
    parallel = benchmark.pedantic(pooled, rounds=1, iterations=1)
    parallel_s = time.perf_counter() - t0

    assert set(parallel) == set(serial)
    ratio = serial_s / parallel_s if parallel_s else float("inf")
    report_sink(
        ExperimentReport(
            "bench exec pool",
            "Figure 12 sweep: serial vs 4-worker pool",
            ["workers", "tasks", "wall (s)", "speedup"],
            [
                ["1", len(sweep_plan), f"{serial_s:.2f}", "1.00x"],
                ["4", len(sweep_plan), f"{parallel_s:.2f}", f"{ratio:.2f}x"],
            ],
            summary={"speedup": ratio},
        )
    )
    # Machine-dependent: require no worse than serial (with 25% slack
    # for pool start-up on small sweeps), not a specific speedup.
    assert parallel_s <= serial_s * 1.25


def test_exec_cache_warm_vs_cold(benchmark, sweep_plan, tmp_path, report_sink):
    store = ResultStore(tmp_path / "bench-cache")

    t0 = time.perf_counter()
    cold = execute_plan(sweep_plan, store=store)
    cold_s = time.perf_counter() - t0

    registry = MetricsRegistry()

    def warm():
        with use_registry(registry):
            return execute_plan(sweep_plan, store=store)

    t0 = time.perf_counter()
    warm_results = benchmark.pedantic(warm, rounds=1, iterations=1)
    warm_s = time.perf_counter() - t0

    assert set(warm_results) == set(cold)
    assert registry.counter("simulator.simulations").value == 0
    ratio = cold_s / warm_s if warm_s else float("inf")
    report_sink(
        ExperimentReport(
            "bench exec cache",
            "Figure 12 sweep: cold vs warm result store",
            ["cache", "tasks", "wall (s)", "speedup"],
            [
                ["cold", len(sweep_plan), f"{cold_s:.2f}", "1.00x"],
                ["warm", len(sweep_plan), f"{warm_s:.2f}", f"{ratio:.2f}x"],
            ],
            summary={"speedup": ratio},
        )
    )
    assert warm_s < cold_s
