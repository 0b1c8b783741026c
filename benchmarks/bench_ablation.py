"""Ablation benches for the design choices DESIGN.md §6 calls out.

Each ablation reruns a representative slice of the suite with one design
knob flipped and reports the suite-average normalized I/O latency, so
the contribution of each ingredient is visible:

* hierarchical (level-by-level) clustering vs. flat k-way clustering;
* balance-threshold sweep;
* Fig. 15 weight split (α/β);
* chunk execution order of the unscheduled scheme;
* storage cache replacement policy (the paper's orthogonality claim).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.clustering import distribute_iterations, flat_distribution
from repro.core.chunking import form_iteration_chunks
from repro.core.mapper import InterProcessorMapper
from repro.experiments.harness import normalized_suite, run_suite
from repro.experiments.report import ExperimentReport
from repro.simulator.engine import simulate
from repro.simulator.streams import build_client_streams
from repro.storage.filesystem import ParallelFileSystem
from repro.util.rng import make_rng
from repro.workloads.base import WorkloadParams
from repro.workloads.suite import get_workload

WORKLOADS = ("hf", "apsi", "wupwise")


def _avg_io(config, versions=("original", "inter")):
    results = run_suite(
        config, versions=versions, workloads=[get_workload(w) for w in WORKLOADS]
    )
    normalized = normalized_suite(results)
    out = {}
    for v in versions[1:]:
        out[v] = sum(n[v]["io_latency"] for n in normalized.values()) / len(
            normalized
        )
    return out


def _io_for_distribution(workload_name, config, distribution_fn):
    w = get_workload(workload_name)
    params = WorkloadParams(
        chunk_elems=config.chunk_elems, data_chunks=config.data_chunks
    )
    nest, ds = w.build(params)
    hierarchy = config.build_hierarchy()
    cs = form_iteration_chunks(nest, ds)
    dist = distribution_fn(cs, hierarchy, config.balance_threshold)
    mapping = InterProcessorMapper().map_distribution(dist, hierarchy, make_rng(1))
    streams = build_client_streams(mapping, nest, ds)
    fs = ParallelFileSystem(
        config.num_storage_nodes, config.chunk_elems * 1024, config.disk
    )
    sim = simulate(
        streams,
        hierarchy,
        fs,
        latency=config.latency,
        iterations_per_client=mapping.iteration_counts(),
    )
    return sim.io_latency_ms


def test_hierarchical_vs_flat_clustering(benchmark, bench_config, report_sink):
    """Does walking the cache tree beat hierarchy-oblivious k-way?"""

    def run():
        rows = []
        wins = 0
        for name in WORKLOADS:
            hier = _io_for_distribution(name, bench_config, distribute_iterations)
            flat = _io_for_distribution(name, bench_config, flat_distribution)
            wins += hier <= flat * 1.02
            rows.append([name, f"{hier:.0f}", f"{flat:.0f}"])
        return rows, wins

    rows, wins = benchmark.pedantic(run, rounds=1, iterations=1)
    report_sink(
        ExperimentReport(
            "Ablation clustering",
            "Hierarchical (Fig. 5) vs flat k-way clustering: io latency (ms)",
            ["workload", "hierarchical", "flat"],
            rows,
        )
    )
    assert wins >= 2  # tree awareness helps (or at worst ties) mostly


def test_balance_threshold_sweep(benchmark, bench_config, report_sink):
    def run():
        rows = []
        for bthres in (0.02, 0.10, 0.30):
            cfg = replace(bench_config, balance_threshold=bthres)
            io = _avg_io(cfg)["inter"]
            rows.append([f"{bthres:.2f}", f"{io:.3f}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report_sink(
        ExperimentReport(
            "Ablation bthres",
            "Balance threshold sweep: inter io normalized to original",
            ["BThres", "inter io"],
            rows,
            notes=["paper uses 10%"],
        )
    )
    assert all(float(r[1]) < 1.0 for r in rows)


def test_alpha_beta_sweep(benchmark, bench_config, report_sink):
    """Paper §5.4: equal weights (0.5/0.5) generated the best results."""

    def run():
        rows = []
        for alpha, beta in ((1.0, 0.0), (0.5, 0.5), (0.0, 1.0)):
            cfg = replace(bench_config, alpha=alpha, beta=beta)
            io = _avg_io(cfg, versions=("original", "inter+sched"))["inter+sched"]
            rows.append([f"{alpha:.1f}/{beta:.1f}", f"{io:.3f}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report_sink(
        ExperimentReport(
            "Ablation alpha-beta",
            "Fig. 15 weight sweep: inter+sched io normalized to original",
            ["alpha/beta", "io"],
            rows,
            notes=["paper: equal weights perform best"],
        )
    )
    assert all(float(r[1]) < 1.0 for r in rows)


def test_replacement_policy_orthogonality(benchmark, bench_config, report_sink):
    """Paper: 'our approach itself can work with any storage caching policy'."""

    def run():
        rows = []
        for policy in ("lru", "fifo", "rrip", "arc"):
            cfg = replace(bench_config, policy=policy)
            io = _avg_io(cfg)["inter"]
            rows.append([policy, f"{io:.3f}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report_sink(
        ExperimentReport(
            "Ablation policy",
            "Replacement policy: inter io normalized to original",
            ["policy", "inter io"],
            rows,
        )
    )
    # The mapping keeps winning regardless of the policy.
    assert all(float(r[1]) < 1.0 for r in rows)


def test_chunk_order_of_unscheduled_scheme(benchmark, bench_config, report_sink):
    """Formation order vs the paper's literal random order (DESIGN.md §5)."""

    def run():
        rows = []
        for order in ("formation", "random"):
            ios = []
            for name in WORKLOADS:
                w = get_workload(name)
                params = WorkloadParams(
                    chunk_elems=bench_config.chunk_elems,
                    data_chunks=bench_config.data_chunks,
                )
                nest, ds = w.build(params)
                h = bench_config.build_hierarchy()
                mapper = InterProcessorMapper(chunk_order=order)
                mapping = mapper.map(nest, ds, h, make_rng(7))
                streams = build_client_streams(mapping, nest, ds)
                fs = ParallelFileSystem(
                    bench_config.num_storage_nodes,
                    bench_config.chunk_elems * 1024,
                    bench_config.disk,
                )
                sim = simulate(
                    streams,
                    h,
                    fs,
                    latency=bench_config.latency,
                    iterations_per_client=mapping.iteration_counts(),
                )
                ios.append(sim.io_latency_ms)
            rows.append([order, f"{np.mean(ios):.0f}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report_sink(
        ExperimentReport(
            "Ablation chunk-order",
            "Unscheduled inter chunk order: mean io latency (ms)",
            ["order", "io (ms)"],
            rows,
            notes=[
                "random is the paper's literal wording; formation order is the"
                " default at this scale (see mapper docstring)"
            ],
        )
    )


def test_gains_persist_with_prefetch_and_writeback(
    benchmark, bench_config, report_sink
):
    """The mapping's advantage survives read-ahead and write-back costs."""

    def run():
        rows = []
        for label, overrides in (
            ("baseline", {}),
            ("prefetch=2", {"prefetch_degree": 2}),
            ("writeback", {"writeback": True}),
            ("both", {"prefetch_degree": 2, "writeback": True}),
        ):
            cfg = replace(bench_config, **overrides)
            io = _avg_io(cfg)["inter"]
            rows.append([label, f"{io:.3f}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report_sink(
        ExperimentReport(
            "Ablation prefetch-writeback",
            "Engine extensions: inter io normalized to original",
            ["configuration", "inter io"],
            rows,
            notes=[
                "sequential read-ahead helps the Original's streaming more,"
                " so the normalized gain shrinks but persists"
            ],
        )
    )
    assert all(float(r[1]) < 1.0 for r in rows)
