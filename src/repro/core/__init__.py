"""The paper's contribution: storage-cache-aware iteration mapping.

Pipeline (paper §4):

1. :mod:`~repro.core.chunking` — tag every iteration with the data
   chunks it touches; group equal tags into iteration chunks (§4.2).
2. :mod:`~repro.core.graph` — affinity graph over iteration chunks,
   edge weight = shared-chunk count (§4.3, initialization).
3. :mod:`~repro.core.clustering` + :mod:`~repro.core.balancing` —
   hierarchical clustering down the cache hierarchy tree with greedy
   dot-product merging and balance-threshold load balancing (Fig. 5).
4. :mod:`~repro.core.scheduling` — optional per-client iteration-chunk
   ordering maximising vertical (β) and horizontal (α) reuse (Fig. 15).

:mod:`~repro.core.mapper` wraps the pipeline as
:class:`InterProcessorMapper`; :mod:`~repro.core.baselines` provides the
paper's *Original* and *Intra-processor* comparison versions;
:mod:`~repro.core.dependences` and :mod:`~repro.core.multinest`
implement the §5.4 extensions.
"""

from repro.core.chunking import IterationChunk, IterationChunkSet, form_iteration_chunks
from repro.core.graph import AffinityGraph, build_affinity_graph
from repro.core.clustering import Cluster, distribute_iterations
from repro.core.scheduling import schedule_clients
from repro.core.mapping import Mapping
from repro.core.mapper import InterProcessorMapper
from repro.core.baselines import OriginalMapper, IntraProcessorMapper
from repro.core.multinest import combine_nests

__all__ = [
    "IterationChunk",
    "IterationChunkSet",
    "form_iteration_chunks",
    "AffinityGraph",
    "build_affinity_graph",
    "Cluster",
    "distribute_iterations",
    "schedule_clients",
    "Mapping",
    "InterProcessorMapper",
    "OriginalMapper",
    "IntraProcessorMapper",
    "combine_nests",
]
