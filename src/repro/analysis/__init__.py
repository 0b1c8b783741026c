"""Offline analysis of access streams and mappings.

The storage-cache literature's standard diagnostics, used here to
*explain* the mapping results rather than just report them:

* :mod:`~repro.analysis.reuse` — LRU stack (reuse) distance profiles:
  the hit rate of *every* cache size from one pass over a trace;
* :mod:`~repro.analysis.sharing` — client-pair sharing matrices and
  the constructive-sharing quality of a mapping against a hierarchy;
* :mod:`~repro.analysis.footprint` — per-client footprints and
  working-set curves.
"""

from repro.analysis.footprint import footprint_curve, mapping_footprints
from repro.analysis.reuse import reuse_distance_profile
from repro.analysis.sharing import mapping_affinity_quality, sharing_matrix

__all__ = [
    "reuse_distance_profile",
    "sharing_matrix",
    "mapping_affinity_quality",
    "footprint_curve",
    "mapping_footprints",
]
