"""Data-dependence analysis for affine loop nests.

Used in two places:

* the paper's *default parallelization strategy* (§3): "place all data
  dependences into inner loop positions … then parallelize the outermost
  loop that does not carry any data dependence";
* the dependence-aware mapping extension (§5.4): dependences between
  iterations are either fused into one cluster (infinite edge weight) or
  treated as data sharing with synchronisation inserted at scheduling
  time.

Three classic tests are layered cheapest-first:

1. **ZIV/constant test** — both subscripts constant: dependence iff equal.
2. **GCD test** — the linear Diophantine equation per dimension has a
   solution only if gcd of coefficients divides the constant term.
3. **Banerjee bounds** — the extreme values of the difference expression
   must straddle zero.

If all tests pass (a dependence cannot be disproved), uniform references
(equal access matrices) yield an exact **distance vector**; otherwise a
bounded exact check enumerates small spaces, and larger spaces
conservatively report an unknown-direction dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef

__all__ = [
    "Dependence",
    "find_dependences",
    "may_depend",
    "distance_vector",
    "carried_level",
    "parallelizable_loops",
    "outermost_parallel_loop",
]

#: Above this iteration-space size the exact fallback is skipped and an
#: unknown-direction dependence is conservatively assumed.
EXACT_TEST_LIMIT = 200_000

#: Index boxes with at least this many cells are not encoded as int64
#: codes (``np.ravel_multi_index`` needs the product to fit).
_MAX_CODES = 1 << 62


@dataclass(frozen=True)
class Dependence:
    """A (may-)dependence between two references of a nest.

    ``distance`` is the exact iteration-distance vector when known
    (uniform references), else ``None`` (direction unknown — treated as
    carried by the outermost loop).
    """

    source: ArrayRef
    sink: ArrayRef
    distance: tuple[int, ...] | None

    @property
    def level(self) -> int:
        """Loop level carrying the dependence (0 = outermost).

        A ``None`` or all-zero distance is loop-independent and reported
        as carried at level ``depth`` (i.e. no loop carries it) only for
        all-zero; unknown distances pessimistically report level 0.
        """
        if self.distance is None:
            return 0
        return carried_level(self.distance)


def carried_level(distance: Sequence[int]) -> int:
    """Index of the first nonzero entry; ``len(distance)`` if all zero."""
    for k, d in enumerate(distance):
        if d != 0:
            return k
    return len(distance)


def _gcd_test(coeffs: np.ndarray, const: int) -> bool:
    """True if the Diophantine equation ``coeffs·x = const`` may have a solution."""
    nz = [int(abs(c)) for c in coeffs if c != 0]
    if not nz:
        return const == 0
    g = math.gcd(*nz) if len(nz) > 1 else nz[0]
    return const % g == 0


def _banerjee_test(
    coeffs: np.ndarray, const: int, lowers: np.ndarray, uppers: np.ndarray
) -> bool:
    """True if ``coeffs·x + const = 0`` may hold for x in the box."""
    pos = np.where(coeffs > 0, coeffs, 0)
    neg = np.where(coeffs < 0, coeffs, 0)
    lo = int(pos @ lowers + neg @ uppers) + const
    hi = int(pos @ uppers + neg @ lowers) + const
    return lo <= 0 <= hi


def may_depend(
    ref_a: ArrayRef, ref_b: ArrayRef, space: IterationSpace
) -> bool:
    """Can ``ref_a(σ1) == ref_b(σ2)`` hold for iterations σ1, σ2 of the space?

    Conservative (may return True when no dependence exists) but exact for
    the affine single-subscript-per-dimension case within the tests'
    power.  References carrying a modulus are handled by the exact
    fallback (or conservatively for big spaces).
    """
    if ref_a.array_name != ref_b.array_name:
        return False
    if not (ref_a.is_affine and ref_b.is_affine):
        return _exact_or_conservative(ref_a, ref_b, space)
    Qa, qa = ref_a.matrix_form()
    Qb, qb = ref_b.matrix_form()
    # Unknowns are (σ1, σ2): per array dimension d the equation is
    # Qa[d]·σ1 - Qb[d]·σ2 + (qa[d] - qb[d]) = 0.
    lowers = np.concatenate([space.lowers, space.lowers])
    uppers = np.concatenate([space.uppers, space.uppers])
    for d in range(ref_a.ndim):
        coeffs = np.concatenate([Qa[d], -Qb[d]])
        const = int(qa[d] - qb[d])
        if not coeffs.any() and const != 0:
            return False  # ZIV: constant subscripts differ
        if not _gcd_test(coeffs, const):
            return False
        if not _banerjee_test(coeffs, const, lowers, uppers):
            return False
    return True


def _exact_or_conservative(
    ref_a: ArrayRef, ref_b: ArrayRef, space: IterationSpace
) -> bool:
    if space.size > EXACT_TEST_LIMIT:
        return True  # conservative
    its = space.enumerate()
    ia = ref_a.indices(its)
    ib = ref_b.indices(its)
    if ia.shape[1] != ib.shape[1]:
        return False  # index tuples of different lengths never coincide
    # Compare the full touched-index sets (element granularity): encode
    # every index row as one int64 over the joint bounding box of both
    # references, then test the two code sets for overlap.
    lo = np.minimum(ia.min(axis=0), ib.min(axis=0))
    hi = np.maximum(ia.max(axis=0), ib.max(axis=0))
    box = tuple(int(h) - int(l) + 1 for l, h in zip(lo.tolist(), hi.tolist()))
    if math.prod(box) >= _MAX_CODES:
        return _overlap_by_tuples(ia, ib)
    code_a = np.ravel_multi_index(tuple((ia - lo).T), box)
    code_b = np.ravel_multi_index(tuple((ib - lo).T), box)
    return bool(np.isin(code_a, code_b).any())


def _overlap_by_tuples(ia: np.ndarray, ib: np.ndarray) -> bool:
    """Index-set overlap for boxes too large to encode in an int64."""
    set_a = {tuple(int(v) for v in row) for row in ia}
    set_b = {tuple(int(v) for v in row) for row in ib}
    return not set_a.isdisjoint(set_b)


def distance_vector(
    ref_a: ArrayRef, ref_b: ArrayRef
) -> tuple[int, ...] | None:
    """Exact distance for uniform references (equal access matrices).

    Returns ``σ2 - σ1`` such that ``ref_a(σ1) == ref_b(σ2)``, i.e. the
    iteration distance from the access by ``ref_a`` to the same element's
    access by ``ref_b``.  ``None`` when the references are not uniform or
    the offset difference is not achievable (non-unimodular row).
    """
    if not (ref_a.is_affine and ref_b.is_affine):
        return None
    Qa, qa = ref_a.matrix_form()
    Qb, qb = ref_b.matrix_form()
    if not np.array_equal(Qa, Qb):
        return None
    # Solve Q·σ1 + qa = Q·σ2 + qb  =>  Q·(σ1 - σ2) = qb - qa.
    rhs = (qb - qa).astype(np.float64)
    try:
        sol, residuals, rank, _ = np.linalg.lstsq(Qa.astype(np.float64), rhs, rcond=None)
    except np.linalg.LinAlgError:  # pragma: no cover - defensive
        return None
    if rank < min(Qa.shape):
        return None
    check = Qa.astype(np.float64) @ sol
    if not np.allclose(check, rhs):
        return None
    rounded = np.rint(sol)
    if not np.allclose(sol, rounded, atol=1e-9):
        return None
    return tuple(int(-v) for v in rounded)  # σ2 - σ1


def find_dependences(nest: LoopNest, *, include_input_deps: bool = False) -> list[Dependence]:
    """All pairwise (may-)dependences among the nest's references.

    By default only pairs involving at least one write are reported
    (true/anti/output dependences); ``include_input_deps=True`` also
    reports read-read sharing, which the mapping algorithm treats as
    affinity rather than an ordering constraint.
    """
    deps: list[Dependence] = []
    refs = nest.references
    for a in range(len(refs)):
        for b in range(a, len(refs)):
            ra, rb = refs[a], refs[b]
            if ra.array_name != rb.array_name:
                continue
            if not include_input_deps and not (ra.is_write or rb.is_write):
                continue
            if a == b and not ra.is_write:
                continue  # a read against itself orders nothing
            if not may_depend(ra, rb, nest.space):
                continue
            dist = distance_vector(ra, rb)
            if dist is not None:
                if all(d == 0 for d in dist):
                    if a == b:
                        continue  # a reference trivially "depends" on itself
                    # Loop-independent dependence: orders nothing across
                    # iterations, irrelevant for mapping/permutation.
                    continue
                # Canonicalise: the dependence runs from the lexicographically
                # earlier iteration, so the distance must be lex-positive.
                lvl = carried_level(dist)
                if dist[lvl] < 0:
                    dist = tuple(-d for d in dist)
            deps.append(Dependence(ra, rb, dist))
    return deps


def parallelizable_loops(nest: LoopNest) -> list[bool]:
    """Per loop level: does no dependence get carried at that level?

    A loop can run its iterations in parallel without synchronisation iff
    no dependence is carried at its level (classic doall condition).
    Unknown-direction dependences conservatively mark every level.
    """
    carried = [False] * nest.depth
    for dep in find_dependences(nest):
        if dep.distance is None:
            return [False] * nest.depth
        lvl = carried_level(dep.distance)
        if lvl < nest.depth:
            carried[lvl] = True
    return [not c for c in carried]


def outermost_parallel_loop(nest: LoopNest) -> int | None:
    """The paper's default strategy: outermost loop carrying no dependence."""
    for level, ok in enumerate(parallelizable_loops(nest)):
        if ok:
            return level
    return None
