"""§5.4 discussion experiments: multiple nests and dependence handling.

Two extensions the paper evaluates qualitatively:

* **Multi-nest mapping** — forming the ``G`` set from two nests at once
  exploits inter-nest reuse; the paper measured only ~3 % extra cache
  hits because >80 % of reuse is intra-nest.  We map two nests sharing
  one data space separately vs. jointly and report the cache-hit gain.
* **Dependence handling** — loops with carried dependences are mapped
  either by fusing dependent chunks (infinite edge weight — zero
  synchronisation, less parallelism) or by treating the dependence as
  sharing and inserting inter-processor synchronisation (the paper's
  implemented choice).  We report cross-client synchronisation counts
  and latencies for both strategies.
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import distribute_iterations
from repro.core.dependences import (
    DependenceStrategy,
    count_cross_client_syncs,
)
from repro.core.mapper import InterProcessorMapper
from repro.core.multinest import combine_nests
from repro.experiments.config import SystemConfig, scaled_config
from repro.experiments.report import ExperimentReport
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.arrays import DataSpace, DiskArray
from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef
from repro.simulator.runner import simulate_streams
from repro.simulator.streams import build_client_streams
from repro.util.rng import make_rng

__all__ = ["run_multinest", "run_dependences", "run", "two_phase_nests", "dependent_nest"]


def two_phase_nests(config: SystemConfig) -> tuple[list[LoopNest], DataSpace]:
    """Two computation phases over one shared data space.

    Phase 1 sweeps A with near strides; phase 2 re-reads A with a
    half-array pairing and writes B — inter-nest reuse lives in A.
    """
    d = config.chunk_elems
    m = config.data_chunks
    P = (3 * m // 4) * d
    pb = max(1, m // 4) * d
    ds = DataSpace([DiskArray("A", (P,)), DiskArray("B", (pb,))], d)
    n1 = P - 2 * d
    phase1 = LoopNest(
        "phase1",
        IterationSpace([(0, n1 - 1)]),
        [
            ArrayRef("A", [AffineExpr([1])]),
            ArrayRef("A", [AffineExpr([1], 2 * d)]),
        ],
    )
    phase2 = LoopNest(
        "phase2",
        IterationSpace([(0, P - 1)]),
        [
            ArrayRef("A", [AffineExpr([1])]),
            ArrayRef("A", [AffineExpr([1], P // 2, modulus=P)]),
            ArrayRef("B", [AffineExpr([1], 0, modulus=pb)], is_write=True),
        ],
    )
    return [phase1, phase2], ds


def dependent_nest(config: SystemConfig) -> tuple[LoopNest, DataSpace]:
    """A 1-D recurrence: ``A[i] = f(A[i - 2d], A[i + 2d])`` (carried deps)."""
    d = config.chunk_elems
    P = config.data_chunks * d
    ds = DataSpace([DiskArray("A", (P,))], d)
    space = IterationSpace([(2 * d, P - 2 * d - 1)])
    refs = [
        ArrayRef("A", [AffineExpr([1])], is_write=True),
        ArrayRef("A", [AffineExpr([1], -2 * d)]),
        ArrayRef("A", [AffineExpr([1], 2 * d)]),
    ]
    return LoopNest("recurrence", space, refs), ds


def run_multinest(config: SystemConfig | None = None) -> ExperimentReport:
    """Build (or fetch from the active result store) the multi-nest report."""
    config = config or scaled_config(4)
    from repro.exec.plan import cached_report

    return cached_report("discussion.multinest", config, _build_multinest)


def _build_multinest(config: SystemConfig) -> ExperimentReport:
    nests, ds = two_phase_nests(config)
    hierarchy = config.build_hierarchy()
    mapper = InterProcessorMapper(balance_threshold=config.balance_threshold)
    rng = make_rng(config.seed)

    # Separate mapping: each nest in isolation, executed back to back.
    streams_sep: dict[int, list[np.ndarray]] = {
        c: [] for c in range(config.num_clients)
    }
    iters_sep = {c: 0 for c in range(config.num_clients)}
    for nest in nests:
        mapping = mapper.map(nest, ds, hierarchy, rng)
        s = build_client_streams(mapping, nest, ds)
        for c in range(config.num_clients):
            streams_sep[c].append(s[c])
            iters_sep[c] += len(mapping.client_order[c])
    sep = simulate_streams(
        {c: np.concatenate(v) for c, v in streams_sep.items()},
        config,
        iterations_per_client=iters_sep,
    )

    # Combined mapping: one G set over both nests (paper §5.4).
    combined, chunk_set = combine_nests(nests, ds)
    distribution = distribute_iterations(
        chunk_set, hierarchy, config.balance_threshold
    )
    mapping = mapper.map_distribution(distribution, hierarchy, rng)
    streams = build_client_streams(mapping, combined, ds)
    joint = simulate_streams(
        streams, config, iterations_per_client=mapping.iteration_counts()
    )

    hit_gain = (
        (joint.total_cache_hits() - sep.total_cache_hits())
        / sep.total_cache_hits()
        if sep.total_cache_hits()
        else 0.0
    )
    rows = [
        ["separate", sep.total_cache_hits(), f"{sep.io_latency_ms:.0f}"],
        ["combined", joint.total_cache_hits(), f"{joint.io_latency_ms:.0f}"],
    ]
    return ExperimentReport(
        "§5.4 multi-nest",
        "Mapping two nests jointly vs. separately",
        ["mapping", "total cache hits", "io latency (ms)"],
        rows,
        notes=[
            f"combined mapping changes cache hits by {100 * hit_gain:+.1f}%",
            "paper: handling nests together added only ~3% cache hits",
        ],
        summary={"hit_gain": hit_gain},
    )


def run_dependences(config: SystemConfig | None = None) -> ExperimentReport:
    """Build (or fetch from the active result store) the dependences report."""
    config = config or scaled_config(4)
    from repro.exec.plan import cached_report

    return cached_report("discussion.dependences", config, _build_dependences)


def _build_dependences(config: SystemConfig) -> ExperimentReport:
    nest, ds = dependent_nest(config)
    hierarchy = config.build_hierarchy()
    rows = []
    summary = {}
    for strategy in (DependenceStrategy.SYNC, DependenceStrategy.FUSE):
        mapper = InterProcessorMapper(
            balance_threshold=config.balance_threshold,
            dependence_strategy=strategy,
        )
        mapping = mapper.map(nest, ds, hierarchy, make_rng(config.seed))
        syncs = count_cross_client_syncs(mapping, nest)
        total_syncs = sum(syncs.values())
        streams = build_client_streams(mapping, nest, ds)
        sim = simulate_streams(
            streams,
            config,
            iterations_per_client=mapping.iteration_counts(),
            sync_counts=syncs,
        )
        rows.append(
            [
                strategy.value,
                total_syncs,
                f"{sim.io_latency_ms:.0f}",
                f"{sim.execution_time_ms:.0f}",
                f"{mapping.imbalance():.2f}",
            ]
        )
        summary[f"syncs_{strategy.value}"] = float(total_syncs)
        summary[f"exec_{strategy.value}"] = sim.execution_time_ms
    return ExperimentReport(
        "§5.4 dependences",
        "Dependence strategies: sync insertion vs. chunk fusion",
        ["strategy", "cross-client syncs", "io (ms)", "exec (ms)", "imbalance"],
        rows,
        notes=[
            "sync: dependences treated as data sharing, synchronisation charged per crossing",
            "fuse: dependent chunks forced into one cluster (fewer syncs, more imbalance)",
        ],
        summary=summary,
    )


def run(config: SystemConfig | None = None) -> list[ExperimentReport]:
    return [run_multinest(config), run_dependences(config)]


def main() -> None:  # pragma: no cover - CLI entry
    for report in run():
        print(report.render())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
