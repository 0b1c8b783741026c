"""Tests for the default parallelization strategy (paper §3)."""

import numpy as np
import pytest

from repro.core.parallelize import (
    ParallelizationPlan,
    apply_parallelization,
    default_parallelization,
)
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.arrays import DataSpace, DiskArray
from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef


def nest_2d(refs, shape=(8, 8), lowers=(0, 0)):
    bounds = [(lowers[k], lowers[k] + shape[k] - 1) for k in range(2)]
    return LoopNest("n", IterationSpace(bounds), refs)


class TestDefaultParallelization:
    def test_no_dependences_identity(self):
        nest = nest_2d(
            [ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [0, 0], is_write=True)]
        )
        plan = default_parallelization(nest)
        assert plan.order == (0, 1)
        assert plan.parallel == (True, True)
        assert plan.parallel_level == 0

    def test_outer_carried_dep_pushed_inward(self):
        """A[i,j] = A[i-1,j]: the i-loop carries; interchange puts it inner."""
        nest = nest_2d(
            [
                ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [0, 0], is_write=True),
                ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [-1, 0]),
            ],
            lowers=(1, 0),
        )
        plan = default_parallelization(nest)
        assert plan.order == (1, 0)  # j outside, i inside
        assert plan.parallel_level == 0  # the new outer (j) loop is doall
        assert plan.parallel == (True, False)

    def test_inner_carried_dep_stays_inner(self):
        """A[i,j] = A[i,j-1]: already in the paper's preferred form."""
        nest = nest_2d(
            [
                ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [0, 0], is_write=True),
                ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [0, -1]),
            ],
            lowers=(0, 1),
        )
        plan = default_parallelization(nest)
        assert plan.order == (0, 1)
        assert plan.parallel_level == 0

    def test_fully_dependent_nest(self):
        """A diagonal dependence carries in every legal order."""
        nest = nest_2d(
            [
                ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [0, 0], is_write=True),
                ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [-1, -1]),
            ],
            lowers=(1, 1),
        )
        plan = default_parallelization(nest)
        assert plan.parallel_level == 1  # inner loop parallel after fixing i
        # The outer loop carries the (1,1) distance in either order.
        assert not plan.parallel[0]

    def test_unknown_dependence_serialises(self):
        ds_size = 64
        nest = LoopNest(
            "m",
            IterationSpace([(0, 31)]),
            [
                ArrayRef("A", [AffineExpr([1])], is_write=True),
                ArrayRef("A", [AffineExpr([1], 0, modulus=16)]),
            ],
        )
        plan = default_parallelization(nest)
        assert plan.is_fully_sequential
        assert plan.parallel_level is None


class TestApplyParallelization:
    def test_same_iterations_new_order(self):
        nest = nest_2d(
            [
                ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [0, 0], is_write=True),
                ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [-1, 0]),
            ],
            shape=(4, 6),
            lowers=(1, 0),
        )
        plan = default_parallelization(nest)
        permuted = apply_parallelization(nest, plan)
        assert permuted.depth == 2
        assert permuted.num_iterations == nest.num_iterations
        # Bounds follow the permutation.
        assert permuted.space.bounds[0].lower == 0  # the old j loop
        assert permuted.space.bounds[1].lower == 1  # the old i loop

    def test_references_rewritten_consistently(self):
        ds = DataSpace([DiskArray("A", (16, 16))], 16)
        nest = nest_2d(
            [
                ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [0, 0], is_write=True),
                ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [-1, 0]),
            ],
            shape=(8, 8),
            lowers=(1, 0),
        )
        plan = default_parallelization(nest)
        permuted = apply_parallelization(nest, plan)
        # Element sets must be identical: evaluate both nests' refs.
        orig_elems = {
            tuple(map(int, row))
            for ref in nest.references
            for row in ref.map.evaluate(nest.iterations())
        }
        new_elems = {
            tuple(map(int, row))
            for ref in permuted.references
            for row in ref.map.evaluate(permuted.iterations())
        }
        assert orig_elems == new_elems

    def test_identity_plan_roundtrip(self):
        nest = nest_2d(
            [ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [0, 0])]
        )
        plan = ParallelizationPlan((0, 1), (True, True), 0)
        permuted = apply_parallelization(nest, plan)
        assert np.array_equal(permuted.iterations(), nest.iterations())

    def test_depth_mismatch_rejected(self):
        nest = nest_2d([ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [0, 0])])
        with pytest.raises(ValueError):
            apply_parallelization(
                nest, ParallelizationPlan((0,), (True,), 0)
            )
