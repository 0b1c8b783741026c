"""The paper's default parallelization strategy (§3).

"[For sequential codes] we apply a default parallelization strategy
which first places all data dependences into inner loop positions (to
minimize synchronization costs) and then parallelizes the outermost
loop that does not carry any data dependence."

:func:`default_parallelization` finds the legal loop permutation that
(1) pushes every dependence-carrying loop as deep as possible and
(2) exposes the most outer doall loops, then reports which loops run in
parallel.  The mapper consumes the resulting *parallel iteration set*;
a nest with no dependence-free loop falls back to the §5.4 strategies
(synchronise or fuse).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from repro.polyhedral.dependence import carried_level, find_dependences
from repro.polyhedral.iterspace import IterationSpace, LoopBound
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef
from repro.polyhedral.transforms import permutation_is_legal

__all__ = ["ParallelizationPlan", "default_parallelization", "apply_parallelization"]


@dataclass(frozen=True)
class ParallelizationPlan:
    """Outcome of the default strategy for one nest."""

    #: Loop permutation (``order[k]`` = original loop at new position k).
    order: tuple[int, ...]
    #: Per new-position flags: may the loop's iterations run in parallel?
    parallel: tuple[bool, ...]
    #: New position of the outermost parallel loop, or ``None``.
    parallel_level: int | None

    @property
    def is_fully_sequential(self) -> bool:
        return self.parallel_level is None


def _carried_levels(depth: int, distances) -> list[bool]:
    """Which (original) loops carry a dependence, given the distances."""
    carried = [False] * depth
    for dist in distances:
        if dist is None:
            return [True] * depth  # unknown: every loop may carry it
        lvl = carried_level(dist)
        if lvl < depth:
            carried[lvl] = True
    return carried


def default_parallelization(nest: LoopNest) -> ParallelizationPlan:
    """Choose the permutation the paper's default strategy would choose.

    Among all *legal* permutations, prefer (lexicographically):

    1. the most consecutive dependence-free loops at the outside;
    2. dependence-carrying loops as deep (inner) as possible overall.

    With no dependences the identity order wins trivially.
    """
    deps = find_dependences(nest)
    distances = [d.distance for d in deps]
    depth = nest.depth

    best: tuple | None = None
    best_order: tuple[int, ...] = tuple(range(depth))
    for order in permutations(range(depth)):
        if not permutation_is_legal(order, distances):
            continue
        permuted_dists = [
            tuple(dist[loop] for loop in order)
            for dist in distances
            if dist is not None
        ]
        if any(d is None for d in distances):
            carried_new = [True] * depth
        else:
            carried_new = _carried_levels(depth, permuted_dists)
        # Outer run of dependence-free loops.
        free_prefix = 0
        for flag in carried_new:
            if flag:
                break
            free_prefix += 1
        # Depth score: sum of positions of carrying loops (bigger=deeper).
        depth_score = sum(k for k, f in enumerate(carried_new) if f)
        # Prefer identity order among equals (stability).
        identity_bonus = 1 if tuple(order) == tuple(range(depth)) else 0
        key = (free_prefix, depth_score, identity_bonus, tuple(-o for o in order))
        if best is None or key > best:
            best = key
            best_order = tuple(order)

    # Recompute the final carried flags for the chosen order.
    if any(d is None for d in distances):
        carried_new = [True] * depth
    else:
        permuted = [
            tuple(dist[loop] for loop in best_order) for dist in distances
        ]
        carried_new = _carried_levels(depth, permuted)
    parallel = tuple(not c for c in carried_new)
    level = next((k for k, p in enumerate(parallel) if p), None)
    return ParallelizationPlan(best_order, parallel, level)


def apply_parallelization(nest: LoopNest, plan: ParallelizationPlan) -> LoopNest:
    """Rebuild the nest with the plan's loop order.

    Bounds and reference subscripts are permuted consistently; the new
    nest enumerates the same iterations in the permuted lexicographic
    order, ready for tagging and mapping.
    """
    if len(plan.order) != nest.depth:
        raise ValueError("plan depth does not match the nest")
    bounds = [nest.space.bounds[loop] for loop in plan.order]
    space = IterationSpace(
        [LoopBound(b.lower, b.upper, b.name) for b in bounds]
    )
    refs = []
    for ref in nest.references:
        new_exprs = []
        for expr in ref.map.exprs:
            coeffs = np.asarray(
                [expr.coeffs[loop] for loop in plan.order], dtype=np.int64
            )
            from repro.polyhedral.affine import AffineExpr

            new_exprs.append(AffineExpr(coeffs, expr.const, expr.modulus))
        refs.append(ArrayRef(ref.array_name, new_exprs, is_write=ref.is_write))
    return LoopNest(f"{nest.name}~par", space, refs)
