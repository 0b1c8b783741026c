"""System configuration (paper Table 1) and its scaled-down analogue.

The paper's platform:

====================================== =======================
Number of client nodes                 64
Number of I/O nodes                    32
Number of storage nodes                16
Data striping                          all 16 storage nodes
Stripe size                            64 KB
Storage capacity/disk                  40 GB
RPM                                    10 000
Data chunk size                        64 KB
Cache capacity/node (client,I/O,stor.) (2 GB, 2 GB, 2 GB)
====================================== =======================

Scaling rule (DESIGN.md §2): one element models 1 KB, so a 64-element
chunk stands for the 64 KB chunk.  The paper's per-client dataset share
is 3-6.6 GB against 2 GB per-node caches (cache ≈ half a client share);
we keep L1 at that ratio (1024 data elements per client vs 1024-element
L1 nodes).  Shared levels grow per level (3072 L2, 12288 L3) instead of
staying byte-equal: after a four-decade downscale a byte-equal L2/L3
would be a single reuse window of a handful of chunks, erasing the
medium-range hits the paper's 32768-chunk caches provide; growing the
shared levels restores each level's *hit opportunity*, which is the
quantity the evaluation depends on.  Figure 13 sweeps these capacities
both ways.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.hierarchy.policies import check_policy_name
from repro.hierarchy.topology import CacheHierarchy, three_level_hierarchy
from repro.simulator.engine import LatencyModel
from repro.storage.disk import DiskParameters
from repro.util.validation import check_in_range, check_positive

__all__ = ["PAPER_TABLE1", "SystemConfig", "DEFAULT_CONFIG", "scaled_config"]

#: The literal Table 1 values, kept for documentation and reports.
PAPER_TABLE1 = {
    "num_clients": 64,
    "num_io_nodes": 32,
    "num_storage_nodes": 16,
    "stripe_size_kb": 64,
    "data_chunk_kb": 64,
    "storage_capacity_per_disk_gb": 40,
    "rpm": 10_000,
    "cache_capacity_per_node_gb": (2, 2, 2),
}


@dataclass(frozen=True)
class SystemConfig:
    """One experiment configuration (scaled units: 1 element == 1 KB)."""

    num_clients: int = 64
    num_io_nodes: int = 32
    num_storage_nodes: int = 16
    #: Data chunk (== stripe) size in elements; 64 models the 64 KB default.
    chunk_elems: int = 64
    #: Per-node cache capacities in elements (client, I/O, storage).
    #: The paper uses equal 2 GB nodes; at a 4-decade downscale equal
    #: bytes would leave every cache a single reuse window, so the scaled
    #: defaults grow per level to preserve each level's hit opportunity
    #: (per-client share: 1024 data elements vs 1024 L1, 1536 L2, 3072 L3).
    cache_elems: tuple[int, int, int] = (1024, 3072, 12288)
    #: Replacement policy of every storage cache (uniform default).
    policy: str = "lru"
    #: Optional per-level policy override, leaf first (L1, L2, L3); when
    #: set it wins over :attr:`policy`.  The paper manages every cache
    #: with LRU but stresses the mapping "can work with any storage
    #: caching policy" — this is the knob the scenario layer uses to
    #: exercise that claim (e.g. RRIP at L2, ARC at L3).
    policies: tuple[str, str, str] | None = None
    #: Fig. 5 balance threshold (fraction of mean iterations; paper: 10 %).
    balance_threshold: float = 0.10
    #: Fig. 15 reuse weights (paper's best setting).
    alpha: float = 0.5
    beta: float = 0.5
    #: Workload data-space size in chunks *at the default chunk size*; the
    #: byte-equivalent total is held fixed when chunk_elems changes.
    data_elems: int = 65536
    #: Root RNG seed (random chunk order of the unscheduled scheme, etc.).
    seed: int = 2010
    latency: LatencyModel = LatencyModel()
    disk: DiskParameters = DiskParameters()
    #: Sequential prefetch degree at the storage-node caches (0 = off).
    prefetch_degree: int = 0
    #: Account write-backs of dirty chunks (write-allocate, lazy flush).
    writeback: bool = False

    def __post_init__(self):
        check_positive("num_clients", self.num_clients)
        check_positive("num_io_nodes", self.num_io_nodes)
        check_positive("num_storage_nodes", self.num_storage_nodes)
        check_positive("chunk_elems", self.chunk_elems)
        if len(self.cache_elems) != 3:
            raise ValueError("cache_elems must be (L1, L2, L3)")
        for c in self.cache_elems:
            check_positive("cache capacity", c)
        check_policy_name(self.policy)
        if self.policies is not None:
            if len(self.policies) != 3:
                raise ValueError("policies must name one policy per level (L1, L2, L3)")
            for p in self.policies:
                check_policy_name(p)
        check_in_range("balance_threshold", self.balance_threshold, 0.0, 1.0)
        check_positive("data_elems", self.data_elems)
        if self.prefetch_degree < 0:
            raise ValueError("prefetch_degree must be non-negative")

    # -- derived ------------------------------------------------------------------

    @property
    def data_chunks(self) -> int:
        """Workload data-space target in chunks at this chunk size."""
        return max(1, self.data_elems // self.chunk_elems)

    def capacity_chunks(self, level: int) -> int:
        """Per-node capacity in chunks of cache level 0 (L1) / 1 / 2."""
        return max(1, self.cache_elems[level] // self.chunk_elems)

    def level_policies(self) -> tuple[str, str, str]:
        """Effective per-level policies, leaf first (L1, L2, L3)."""
        if self.policies is not None:
            return self.policies
        return (self.policy, self.policy, self.policy)

    def build_hierarchy(self) -> CacheHierarchy:
        return three_level_hierarchy(
            self.num_clients,
            self.num_io_nodes,
            self.num_storage_nodes,
            tuple(self.capacity_chunks(l) for l in range(3)),
            self.level_policies(),
        )

    def with_topology(self, w: int, x: int, y: int) -> "SystemConfig":
        """Fig. 12: change node counts, everything else fixed."""
        return replace(self, num_clients=w, num_io_nodes=x, num_storage_nodes=y)

    def with_cache_capacities(self, l1: int, l2: int, l3: int) -> "SystemConfig":
        """Fig. 13: change per-node cache capacities (in elements)."""
        return replace(self, cache_elems=(l1, l2, l3))

    def with_chunk_elems(self, chunk_elems: int) -> "SystemConfig":
        """Fig. 14: change the data chunk size (dataset bytes held fixed)."""
        return replace(self, chunk_elems=chunk_elems)

    def with_policies(self, l1: str, l2: str, l3: str) -> "SystemConfig":
        """Per-level replacement policies (scenario policy matrix)."""
        return replace(self, policies=(l1, l2, l3))


#: The default (Table 1 analogue) configuration used by the experiments.
DEFAULT_CONFIG = SystemConfig()


def scaled_config(scale: int = 4, **overrides) -> SystemConfig:
    """A smaller topology with identical fan-in ratios, for tests/benches.

    ``scale=4`` gives 16 clients / 8 I/O nodes / 4 storage nodes with a
    proportionally smaller dataset; ratios (clients per I/O cache, data
    per client, cache per client) all match :data:`DEFAULT_CONFIG`.
    """
    if scale < 1 or DEFAULT_CONFIG.num_clients % scale:
        raise ValueError(f"scale must divide {DEFAULT_CONFIG.num_clients}")
    base = SystemConfig(
        num_clients=DEFAULT_CONFIG.num_clients // scale,
        num_io_nodes=DEFAULT_CONFIG.num_io_nodes // scale,
        num_storage_nodes=DEFAULT_CONFIG.num_storage_nodes // scale,
        data_elems=DEFAULT_CONFIG.data_elems // scale,
    )
    return replace(base, **overrides) if overrides else base
