"""Result containers and the paper's metrics.

Three result families (paper §5.1): per-level storage cache miss rates
(Table 2, Fig. 10), I/O latency — "the total time spent by the
application in performing disk I/O … includes the cycles spent in
accessing storage caches" (Fig. 11 left), and overall execution time
(Fig. 11 right).  All comparison results are *normalized against the
Original version* of the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hierarchy.stats import CacheStats

__all__ = ["SimulationResult", "ExperimentResult"]


@dataclass
class SimulationResult:
    """Raw output of one engine run."""

    per_client_io_ms: np.ndarray
    per_client_compute_ms: np.ndarray
    per_client_sync_ms: np.ndarray
    level_stats: dict[str, CacheStats]
    disk_reads: int
    disk_busy_ms: float
    disk_writes: int = 0

    @property
    def num_clients(self) -> int:
        return len(self.per_client_io_ms)

    @property
    def io_latency_ms(self) -> float:
        """Wall-clock I/O time: the slowest client's I/O (+stalls)."""
        return float(np.max(self.per_client_io_ms + self.per_client_sync_ms))

    @property
    def execution_time_ms(self) -> float:
        """Parallel execution time: slowest client end to end."""
        per_client = (
            self.per_client_io_ms
            + self.per_client_compute_ms
            + self.per_client_sync_ms
        )
        return float(np.max(per_client))

    def miss_rate(self, level: str) -> float:
        return self.level_stats[level].miss_rate

    def miss_rates(self) -> dict[str, float]:
        return {name: st.miss_rate for name, st in self.level_stats.items()}

    def total_cache_hits(self) -> int:
        return sum(st.hits for st in self.level_stats.values())

    def total_accesses(self) -> int:
        """Accesses issued by clients (first-level probes)."""
        first = next(iter(self.level_stats.values()))
        return first.accesses


@dataclass
class ExperimentResult:
    """One (workload, config, version) experiment: mapping + simulation."""

    workload: str
    version: str
    sim: SimulationResult
    mapping_time_s: float = 0.0
    extra: dict = field(default_factory=dict)

    # -- paper metrics --------------------------------------------------------

    def miss_rate(self, level: str) -> float:
        return self.sim.miss_rate(level)

    @property
    def io_latency_ms(self) -> float:
        return self.sim.io_latency_ms

    @property
    def execution_time_ms(self) -> float:
        return self.sim.execution_time_ms

    def normalized_against(self, baseline: "ExperimentResult") -> dict[str, float]:
        """Paper-style normalized values (baseline == 1.0).

        A level untouched in the baseline (zero accesses) normalizes to
        1.0 by convention.
        """

        def ratio(ours: float, theirs: float) -> float:
            return ours / theirs if theirs else 1.0

        out = {
            "io_latency": ratio(self.io_latency_ms, baseline.io_latency_ms),
            "execution_time": ratio(
                self.execution_time_ms, baseline.execution_time_ms
            ),
        }
        for level in self.sim.level_stats:
            out[f"miss_rate_{level}"] = ratio(
                self.miss_rate(level), baseline.miss_rate(level)
            )
        return out

    def __repr__(self) -> str:
        rates = ", ".join(
            f"{k}={v:.3f}" for k, v in self.sim.miss_rates().items()
        )
        return (
            f"ExperimentResult({self.workload}/{self.version}: {rates}, "
            f"io={self.io_latency_ms:.1f}ms, exec={self.execution_time_ms:.1f}ms)"
        )
