"""The mapping artifact: per-client ordered iteration lists.

Every mapper (Original, Intra-processor, Inter-processor ±scheduling)
produces a :class:`Mapping`: for each client, the iteration ranks it
executes, in execution order.  The simulator consumes exactly this; the
distribution/schedule metadata is retained for inspection and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.clustering import DistributionResult

__all__ = ["Mapping"]


@dataclass
class Mapping:
    """An iteration-to-processor mapping plus execution order."""

    name: str
    #: client id -> iteration ranks (into the nest's lexicographic order),
    #: in the order the client executes them.
    client_order: dict[int, np.ndarray]
    #: Fig. 5 output, when produced by the Inter-processor mapper.
    distribution: DistributionResult | None = None
    #: Fig. 15 output (pool indices per client), when scheduling ran.
    schedule: dict[int, list[int]] | None = None
    #: Wall-clock seconds spent computing the mapping ("compile time").
    mapping_time_s: float = 0.0

    def __post_init__(self):
        for c, ranks in self.client_order.items():
            self.client_order[c] = np.asarray(ranks, dtype=np.int64)

    @property
    def num_clients(self) -> int:
        return len(self.client_order)

    def iteration_counts(self) -> dict[int, int]:
        return {c: int(len(r)) for c, r in self.client_order.items()}

    @property
    def total_iterations(self) -> int:
        return sum(len(r) for r in self.client_order.values())

    def imbalance(self) -> float:
        """Max relative deviation of per-client iteration counts."""
        counts = [len(r) for r in self.client_order.values()]
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 0.0
        return max(abs(c - mean) for c in counts) / mean

    def client_of_iteration(self, total_iterations: int) -> np.ndarray:
        """Inverse map: rank -> owning client, as an int64 vector."""
        owner = np.full(total_iterations, -1, dtype=np.int64)
        for c, ranks in self.client_order.items():
            owner[ranks] = c
        if (owner < 0).any():
            raise ValueError("mapping does not cover every iteration")
        return owner

    def validate(self, total_iterations: int) -> None:
        """Assert the mapping is a partition of 0..N-1."""
        all_ranks = (
            np.concatenate(list(self.client_order.values()))
            if self.client_order
            else np.empty(0, np.int64)
        )
        if len(all_ranks) != total_iterations:
            raise ValueError(
                f"mapping covers {len(all_ranks)} of {total_iterations} iterations"
            )
        if len(all_ranks) and (all_ranks.min() < 0 or all_ranks.max() >= total_iterations):
            # A repeat outranks a stray rank, as it always has.
            if len(np.unique(all_ranks)) != total_iterations:
                raise ValueError("mapping assigns some iteration twice")
            raise ValueError("mapping contains out-of-range iteration ranks")
        # N in-range ranks cover 0..N-1 exactly when none repeats.
        if len(all_ranks) and np.bincount(all_ranks, minlength=total_iterations).max() > 1:
            raise ValueError("mapping assigns some iteration twice")

    def __repr__(self) -> str:
        return (
            f"Mapping({self.name!r}, clients={self.num_clients}, "
            f"iterations={self.total_iterations})"
        )
