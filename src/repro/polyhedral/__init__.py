"""A small polyhedral substrate (the paper used the Omega library).

Provides exactly the objects the mapping algorithm consumes:

* :class:`~repro.polyhedral.affine.AffineExpr` /
  :class:`~repro.polyhedral.affine.AffineMap` — linear-algebraic array
  subscripts ``R(i) = Q·i + q`` (paper §2), plus the modulo subscripts the
  paper's running example (Fig. 6, ``A[i % d]``) needs;
* :class:`~repro.polyhedral.iterspace.IterationSpace` — rectangular loop
  nests with lexicographic, vectorised enumeration;
* :class:`~repro.polyhedral.references.ArrayRef` — array references into
  the chunked arrays of a :class:`~repro.polyhedral.arrays.DataSpace`;
* :mod:`~repro.polyhedral.box` — subscripts evaluated over a whole
  iteration space by broadcasting one vector per loop, with exact
  corner ranges (no iteration matrix);
* :mod:`~repro.polyhedral.codegen` — Omega ``codegen()``-style loop-band
  reconstruction for enumerating an iteration chunk;
* :mod:`~repro.polyhedral.dependence` — data-dependence tests and
  distance vectors;
* :mod:`~repro.polyhedral.transforms` — loop permutation and tiling (the
  Intra-processor baseline of §5.1).
"""

from repro.polyhedral.affine import AffineExpr, AffineMap
from repro.polyhedral.arrays import DataSpace, DiskArray
from repro.polyhedral.iterspace import IterationSpace, LoopBound
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef
from repro.polyhedral.dependence import Dependence, find_dependences
from repro.polyhedral.transforms import permute_iterations, tile_iterations

__all__ = [
    "AffineExpr",
    "AffineMap",
    "DataSpace",
    "DiskArray",
    "IterationSpace",
    "LoopBound",
    "LoopNest",
    "ArrayRef",
    "Dependence",
    "find_dependences",
    "permute_iterations",
    "tile_iterations",
]
