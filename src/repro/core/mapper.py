"""The Inter-processor mapper: the paper's proposed scheme end to end.

Pipeline: form iteration chunks (§4.2) → affinity graph (§4.3 init) →
hierarchical distribution (Fig. 5) → optionally local scheduling
(Fig. 15).  Without scheduling, chunks on a client execute in *random*
order, matching §5.4: "in the inter-processor scheme used so far we
executed them randomly" — pass a seeded RNG for reproducibility.
"""

from __future__ import annotations

import numpy as np

from repro.core.baselines import block_partition
from repro.core.chunking import form_iteration_chunks
from repro.core.clustering import DistributionResult, distribute_iterations
from repro.core.dependences import DependenceStrategy, apply_dependence_strategy
from repro.core.graph import build_affinity_graph
from repro.core.mapping import Mapping
from repro.core.scheduling import schedule_clients
from repro.hierarchy.topology import CacheHierarchy
from repro.polyhedral.arrays import DataSpace
from repro.polyhedral.nest import LoopNest
from repro.telemetry import get_registry, phase
from repro.util.rng import make_rng

__all__ = ["InterProcessorMapper"]


class InterProcessorMapper:
    """Storage-cache-hierarchy-aware iteration distribution (Fig. 5 ± Fig. 15).

    Parameters
    ----------
    balance_threshold:
        ``BThres`` as a fraction of mean per-client iterations (paper: 10 %).
    schedule:
        Apply the Fig. 15 local scheduling enhancement; chunk order is
        random otherwise (the paper's baseline Inter-processor scheme).
    alpha, beta:
        Fig. 15 reuse weights — I/O-level (horizontal) and client-level
        (vertical); the paper's best setting is 0.5/0.5.
    dependence_strategy:
        ``"none"`` (fully parallel nests), ``"fuse"`` (infinite edge
        weights cluster dependent chunks together) or ``"sync"``
        (dependences treated as sharing; synchronisation accounted at
        simulation time) — §5.4.
    chunk_order:
        Execution order of a client's chunks when ``schedule`` is off:
        ``"formation"`` (tag-formation order — no deliberate ordering,
        the default) or ``"random"`` (the paper's literal "executed them
        randomly"; at our scaled-down cache sizes random order costs
        private-cache locality the paper's 2 GB caches absorbed, so it
        is kept as an ablation knob).
    """

    def __init__(
        self,
        balance_threshold: float = 0.10,
        schedule: bool = False,
        alpha: float = 0.5,
        beta: float = 0.5,
        dependence_strategy: str | DependenceStrategy = DependenceStrategy.NONE,
        chunk_order: str = "formation",
    ):
        self.balance_threshold = float(balance_threshold)
        self.schedule = bool(schedule)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.dependence_strategy = DependenceStrategy(dependence_strategy)
        if chunk_order not in ("formation", "random"):
            raise ValueError("chunk_order must be 'formation' or 'random'")
        self.chunk_order = chunk_order

    @property
    def name(self) -> str:
        return "inter+sched" if self.schedule else "inter"

    def map(
        self,
        nest: LoopNest,
        data_space: DataSpace,
        hierarchy: CacheHierarchy,
        rng: np.random.Generator | None = None,
        chunk_matrix: np.ndarray | None = None,
    ) -> Mapping:
        """Map ``nest`` onto ``hierarchy``'s clients.

        :meth:`distribute` followed by :meth:`map_distribution`;
        ``chunk_matrix`` is the nest's
        :func:`~repro.core.chunking.chunk_matrix_for` matrix, when the
        caller already built it.
        """
        return self.map_distribution(
            self.distribute(nest, data_space, hierarchy, chunk_matrix),
            hierarchy,
            rng,
        )

    def distribute(
        self,
        nest: LoopNest,
        data_space: DataSpace,
        hierarchy: CacheHierarchy,
        chunk_matrix: np.ndarray | None = None,
    ) -> DistributionResult:
        """The Fig. 5 distribution: chunk formation, graph, clustering.

        Reads neither ``schedule`` nor ``alpha``/``beta``, so ``inter``
        and ``inter+sched`` mappers with one ``balance_threshold`` agree
        on it.  The result's ``elapsed_s`` is its measured time.
        """
        with phase("mapping") as total:
            with phase("chunking"):
                chunk_set = form_iteration_chunks(nest, data_space, chunk_matrix)
            with phase("affinity_graph"):
                graph = build_affinity_graph(chunk_set)
                registry = get_registry()
                registry.gauge("graph.nodes").set(graph.num_nodes)
                registry.gauge("graph.forced_pairs").set(len(graph.forced_pairs))
                apply_dependence_strategy(
                    graph, chunk_set, nest, self.dependence_strategy
                )
            with phase("clustering"):
                distribution = distribute_iterations(
                    chunk_set, hierarchy, self.balance_threshold, graph
                )
        distribution.elapsed_s = total.elapsed
        return distribution

    def map_distribution(
        self,
        distribution: DistributionResult,
        hierarchy: CacheHierarchy,
        rng: np.random.Generator | None = None,
    ) -> Mapping:
        """Finalize a mapping from a distribution: order each client's chunks.

        The distribution is only read, so one may finalize several
        mappings.  ``mapping_time_s`` is the distribution's
        ``elapsed_s`` plus this call's own time, which is what
        :meth:`map` measures.  The multi-nest extension builds its
        combined distribution itself (``elapsed_s`` 0).
        """
        rng = rng if rng is not None else make_rng()
        with phase("mapping") as total:
            mapping = self._finalize(distribution, hierarchy, rng)
        mapping.mapping_time_s = distribution.elapsed_s + total.elapsed
        return mapping

    def _finalize(
        self,
        distribution: DistributionResult,
        hierarchy: CacheHierarchy,
        rng: np.random.Generator,
    ) -> Mapping:
        if self.schedule:
            with phase("scheduling"):
                schedule = schedule_clients(
                    distribution, hierarchy, self.alpha, self.beta
                )
        elif self.chunk_order == "random":
            schedule = {
                c: list(rng.permutation(ids).tolist()) if ids else []
                for c, ids in distribution.assignment.items()
            }
        else:  # formation order: sorted by pool index (tag appearance)
            schedule = {
                c: sorted(ids) for c, ids in distribution.assignment.items()
            }
        order = {
            c: (
                np.concatenate([distribution.pool[m].iterations for m in ids])
                if ids
                else np.empty(0, dtype=np.int64)
            )
            for c, ids in schedule.items()
        }
        return Mapping(
            self.name,
            order,
            distribution=distribution,
            schedule=schedule,
        )
