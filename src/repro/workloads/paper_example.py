"""The paper's worked example (§4.4, Figures 6-9 and 16-17).

``figure6_workload`` builds exactly the Fig. 6 fragment::

    int A[m];
    for i = 0 to m - 4d - 1:
        A[i] = A[x] + A[i+4d] + A[i+2d]   # x = i % d

with A divided into 12 chunks of size d, and ``figure7_hierarchy`` the
Fig. 7 target (4 clients, 2 I/O nodes, 1 storage node).  The expected
Fig. 8 tags and the Fig. 9 / Fig. 17 assignments are asserted in the
test suite — the reproduction's ground-truth anchor.
"""

from __future__ import annotations

from repro.hierarchy.topology import CacheHierarchy, three_level_hierarchy
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.arrays import DataSpace, DiskArray
from repro.polyhedral.iterspace import IterationSpace, LoopBound
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef

__all__ = ["figure6_workload", "figure7_hierarchy", "FIGURE8_TAGS"]

#: Fig. 8 tags: iteration chunk index (1-based, paper order) -> bitstring.
FIGURE8_TAGS = {
    1: "101010000000",
    2: "110101000000",
    3: "101010100000",
    4: "100101010000",
    5: "100010101000",
    6: "100001010100",
    7: "100000101010",
    8: "100000010101",
}


def figure6_workload(d: int = 16) -> tuple[LoopNest, DataSpace]:
    """The Fig. 6 code fragment with chunk size ``d`` (12 chunks total)."""
    if d < 2:
        raise ValueError("chunk size d must be at least 2")
    m = 12 * d
    ds = DataSpace([DiskArray("A", (m,))], d)
    space = IterationSpace([LoopBound(0, m - 4 * d - 1, "i")])
    refs = [
        ArrayRef("A", [AffineExpr([1])], is_write=True),  # A[i]  (written)
        ArrayRef("A", [AffineExpr([1], 0, modulus=d)]),  # A[x], x = i % d
        ArrayRef("A", [AffineExpr([1], 4 * d)]),  # A[i + 4d]
        ArrayRef("A", [AffineExpr([1], 2 * d)]),  # A[i + 2d]
    ]
    return LoopNest("figure6", space, refs), ds


def figure7_hierarchy(capacities: tuple[int, int, int] = (4, 8, 16)) -> CacheHierarchy:
    """Fig. 7: four clients, two I/O nodes, one storage node."""
    return three_level_hierarchy(4, 2, 1, capacities)
