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

Banerjee's extremes are the corner values of an affine expression over
the iteration box (:func:`~repro.polyhedral.box.affine_range`).

If all tests pass (a dependence cannot be disproved), uniform references
(equal access matrices) yield an exact **distance vector**.  References
carrying a modulus get an exact test on spaces of up to
:data:`EXACT_TEST_LIMIT` iterations: both references' subscripts are
evaluated over the iteration box (:mod:`repro.polyhedral.box`, no
iteration matrix), every touched index tuple is encoded as one int64 and
the two code sets are intersected.  Larger spaces conservatively report
an unknown-direction dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.polyhedral.box import affine_range, loop_axes, subscript_values
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
#: codes (the row-major code must fit).
_MAX_CODES = 1 << 62

#: Index boxes up to this many cells test overlap with a boolean mark
#: array (4 MiB; ``np.zeros`` takes it zeroed from the OS, so only the
#: pages a code lands on are touched); larger boxes sort with
#: ``np.isin``.  Both are exact; the bound only picks the cheaper one.
_MARK_LIMIT = 1 << 22


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
    lo, hi = affine_range(coeffs, const, lowers, uppers)
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
    if ref_a.ndim != ref_b.ndim:
        return False  # index tuples of different lengths never coincide
    # Compare the full touched-index sets (element granularity): encode
    # every index tuple as one int64 over the joint bounding box of both
    # references, then test the two code sets for overlap.  Subscripts
    # are evaluated over the iteration box, so a reference that ignores
    # a loop yields each of its codes once, not once per trip.
    axes = loop_axes(space)
    va = [subscript_values(e, axes) for e in ref_a.map.exprs]
    vb = [subscript_values(e, axes) for e in ref_b.map.exprs]
    lo = [min(int(a.min()), int(b.min())) for a, b in zip(va, vb)]
    hi = [max(int(a.max()), int(b.max())) for a, b in zip(va, vb)]
    box = [h - l + 1 for l, h in zip(lo, hi)]
    cells = math.prod(box)
    if cells >= _MAX_CODES:
        return _overlap_by_tuples(_index_rows(va, space), _index_rows(vb, space))
    code_a = _codes(va, lo, box).ravel()
    code_b = _codes(vb, lo, box).ravel()
    if cells <= _MARK_LIMIT:
        marks = np.zeros(cells, dtype=bool)
        marks[code_a] = True
        return bool(marks[code_b].any())
    return bool(np.isin(code_a, code_b).any())


def _codes(vals: list[np.ndarray], lo: list[int], box: list[int]) -> np.ndarray:
    """Row-major codes of the index tuples within the ``lo``-based box."""
    code = vals[0] - lo[0]
    for v, l, extent in zip(vals[1:], lo[1:], box[1:]):
        code = code * extent + (v - l)
    return code


def _index_rows(vals: list[np.ndarray], space: IterationSpace) -> np.ndarray:
    """The ``(N, ndim)`` index matrix, lexicographic iteration order."""
    return np.stack([np.broadcast_to(v, space.shape).ravel() for v in vals], axis=1)


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


def find_dependences(nest: LoopNest) -> list[Dependence]:
    """All pairwise (may-)dependences among the nest's references.

    Only pairs involving at least one write are reported (true/anti/
    output dependences); read-read sharing is affinity to the mapping
    algorithm, not an ordering constraint.
    """
    deps: list[Dependence] = []
    refs = nest.references
    for a in range(len(refs)):
        for b in range(a, len(refs)):
            ra, rb = refs[a], refs[b]
            if ra.array_name != rb.array_name:
                continue
            if not (ra.is_write or rb.is_write):
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
