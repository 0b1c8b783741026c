"""Multi-level storage cache hierarchy model (paper §3, Fig. 1).

The hierarchy is a tree of storage caches: compute-node caches (L1) at
the leaves' parents, I/O-node caches (L2) above them, storage-node caches
(L3) at the top, with a dummy root unifying multiple storage nodes.
Clients are the leaves; "two client nodes have *affinity at cache Li* if
both have access to it" — i.e. the cache is on both clients' root paths.
"""

from repro.hierarchy.policies import (
    ReplacementPolicy,
    LRUPolicy,
    FIFOPolicy,
    make_policy,
)
from repro.hierarchy.cache import ChunkCache
from repro.hierarchy.stats import CacheStats
from repro.hierarchy.topology import (
    CacheHierarchy,
    CacheNode,
    three_level_hierarchy,
    uniform_hierarchy,
)

__all__ = [
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "make_policy",
    "ChunkCache",
    "CacheStats",
    "CacheHierarchy",
    "CacheNode",
    "three_level_hierarchy",
    "uniform_hierarchy",
]
