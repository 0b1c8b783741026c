"""Client-pair sharing analysis of a mapping.

Quantifies exactly the property the paper's two rules (§3) are about:
whether iterations that share data ended up on clients that have
affinity at some storage cache.  The *sharing matrix* counts distinct
data chunks each client pair touches in common; the *affinity quality*
compares sharing across cache-sibling pairs against sharing across
unrelated pairs — a good mapping concentrates sharing below the shared
caches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.chunking import chunk_matrix_for
from repro.core.mapping import Mapping
from repro.hierarchy.topology import CacheHierarchy
from repro.polyhedral.arrays import DataSpace
from repro.polyhedral.nest import LoopNest

__all__ = ["sharing_matrix", "mapping_affinity_quality", "AffinityQuality"]


def _client_chunk_sets(
    mapping: Mapping, nest: LoopNest, data_space: DataSpace
) -> dict[int, set[int]]:
    matrix = chunk_matrix_for(nest, data_space)
    return {
        c: set(np.unique(matrix[ranks]).tolist()) if len(ranks) else set()
        for c, ranks in mapping.client_order.items()
    }


def sharing_matrix(
    mapping: Mapping, nest: LoopNest, data_space: DataSpace
) -> np.ndarray:
    """``S[a, b]`` = number of distinct data chunks clients a and b share.

    The diagonal holds each client's footprint size.
    """
    sets = _client_chunk_sets(mapping, nest, data_space)
    k = mapping.num_clients
    out = np.zeros((k, k), dtype=np.int64)
    clients = sorted(sets)
    for i, a in enumerate(clients):
        out[a, a] = len(sets[a])
        for b in clients[i + 1 :]:
            shared = len(sets[a] & sets[b])
            out[a, b] = out[b, a] = shared
    return out


@dataclass(frozen=True)
class AffinityQuality:
    """Average pairwise sharing, split by cache affinity.

    ``sibling_sharing``: mean shared-chunk count over client pairs that
    share *some* storage cache; ``stranger_sharing``: mean over pairs
    that share none.  ``ratio > 1`` means the mapping concentrates data
    sharing below the shared caches — the paper's second rule.
    """

    sibling_sharing: float
    stranger_sharing: float

    @property
    def ratio(self) -> float:
        if self.stranger_sharing == 0:
            return float("inf") if self.sibling_sharing > 0 else 1.0
        return self.sibling_sharing / self.stranger_sharing


def mapping_affinity_quality(
    mapping: Mapping,
    nest: LoopNest,
    data_space: DataSpace,
    hierarchy: CacheHierarchy,
) -> AffinityQuality:
    """Score how well a mapping respects the paper's two rules (§3)."""
    S = sharing_matrix(mapping, nest, data_space)
    k = hierarchy.num_clients
    sib, strangers = [], []
    for a in range(k):
        for b in range(a + 1, k):
            (sib if hierarchy.have_affinity(a, b) else strangers).append(
                int(S[a, b])
            )
    return AffinityQuality(
        sibling_sharing=float(np.mean(sib)) if sib else 0.0,
        stranger_sharing=float(np.mean(strangers)) if strangers else 0.0,
    )
