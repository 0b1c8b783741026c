#!/usr/bin/env python
"""Mapping a loop with carried dependences (paper §5.4).

A 1-D recurrence ``A[i] = f(A[i - 2d], A[i + 2d])`` carries true and
anti dependences at distance 2d.  The paper offers two extensions:

* **sync** — treat the dependences as ordinary data sharing (they
  already show up in the tags) and insert inter-processor
  synchronisation where a dependence crosses clients;
* **fuse** — force dependent iteration chunks into one cluster
  (infinite affinity edge weight) so no synchronisation is needed, at
  the cost of clustering freedom.

Run:  python examples/dependence_handling.py
"""

from repro.core.dependences import DependenceStrategy, count_cross_client_syncs
from repro.core.mapper import InterProcessorMapper
from repro.experiments.config import scaled_config
from repro.experiments.discussion import dependent_nest
from repro.polyhedral.dependence import find_dependences, outermost_parallel_loop
from repro.simulator.engine import simulate
from repro.simulator.streams import build_client_streams
from repro.util.rng import make_rng
from repro.util.tables import format_table


def main() -> None:
    config = scaled_config(8)
    nest, data_space = dependent_nest(config)
    print(f"workload: {nest}")

    deps = find_dependences(nest)
    print(f"dependences found: {len(deps)}")
    for dep in deps:
        print(f"  distance {dep.distance}, carried at loop {dep.level}")
    print(f"outermost parallel loop: {outermost_parallel_loop(nest)}")
    print("  (None: every loop carries a dependence -> synchronise or fuse)\n")

    hierarchy = config.build_hierarchy()
    rows = []
    for strategy in (DependenceStrategy.SYNC, DependenceStrategy.FUSE):
        mapper = InterProcessorMapper(dependence_strategy=strategy)
        mapping = mapper.map(nest, data_space, hierarchy, make_rng(0))
        syncs = count_cross_client_syncs(mapping, nest)
        streams = build_client_streams(mapping, nest, data_space)
        result = simulate(
            streams,
            hierarchy,
            config.build_filesystem(),
            latency=config.latency,
            sync_counts=syncs,
            iterations_per_client=mapping.iteration_counts(),
        )
        rows.append(
            [
                strategy.value,
                sum(syncs.values()),
                f"{mapping.imbalance():.2f}",
                f"{result.io_latency_ms:.0f}",
                f"{result.execution_time_ms:.0f}",
            ]
        )

    print(
        format_table(
            ["strategy", "cross-client syncs", "imbalance", "io (ms)", "exec (ms)"],
            rows,
            title="Dependence strategies on the recurrence",
        )
    )
    print(
        "\nfuse eliminates synchronisation where chains fit one cluster but"
        "\nskews the load; sync keeps balance and pays a stall per crossing."
    )


if __name__ == "__main__":
    main()
