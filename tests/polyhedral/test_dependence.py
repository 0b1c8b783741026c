"""Tests for data-dependence analysis."""

import numpy as np
import pytest

from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.dependence import (
    Dependence,
    carried_level,
    distance_vector,
    find_dependences,
    may_depend,
    outermost_parallel_loop,
    parallelizable_loops,
)
from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef


def nest_1d(refs, n=64):
    return LoopNest("t", IterationSpace([(0, n - 1)]), refs)


class TestMayDepend:
    def test_different_arrays_never_depend(self):
        sp = IterationSpace([(0, 9)])
        a = ArrayRef("A", [AffineExpr([1])], is_write=True)
        b = ArrayRef("B", [AffineExpr([1])])
        assert not may_depend(a, b, sp)

    def test_uniform_overlap(self):
        sp = IterationSpace([(0, 9)])
        w = ArrayRef("A", [AffineExpr([1])], is_write=True)
        r = ArrayRef("A", [AffineExpr([1], 3)])
        assert may_depend(w, r, sp)

    def test_ziv_disjoint_constants(self):
        sp = IterationSpace([(0, 9)])
        a = ArrayRef("A", [AffineExpr([0], 1)], is_write=True)
        b = ArrayRef("A", [AffineExpr([0], 2)])
        assert not may_depend(a, b, sp)

    def test_gcd_test_disproves(self):
        # 2i = 2j + 1 has no integer solution.
        sp = IterationSpace([(0, 99)])
        a = ArrayRef("A", [AffineExpr([2])], is_write=True)
        b = ArrayRef("A", [AffineExpr([2], 1)])
        assert not may_depend(a, b, sp)

    def test_banerjee_disproves_far_offset(self):
        # A[i] vs A[i + 1000] over i in [0, 9]: ranges never meet.
        sp = IterationSpace([(0, 9)])
        a = ArrayRef("A", [AffineExpr([1])], is_write=True)
        b = ArrayRef("A", [AffineExpr([1], 1000)])
        assert not may_depend(a, b, sp)

    def test_modular_refs_exact_check(self):
        sp = IterationSpace([(0, 9)])
        a = ArrayRef("A", [AffineExpr([1])], is_write=True)
        b = ArrayRef("A", [AffineExpr([1], 0, modulus=5)])
        assert may_depend(a, b, sp)  # i in [0,4] overlaps i%5

    def test_modular_refs_disjoint(self):
        sp = IterationSpace([(0, 9)])
        a = ArrayRef("A", [AffineExpr([1], 100)], is_write=True)
        b = ArrayRef("A", [AffineExpr([1], 0, modulus=5)])
        assert not may_depend(a, b, sp)


class TestDistanceVector:
    def test_uniform_1d(self):
        w = ArrayRef("A", [AffineExpr([1])], is_write=True)
        r = ArrayRef("A", [AffineExpr([1], 2)])
        # w(i) == r(j) when j + 2 = i, i.e. sigma2 - sigma1 = -2.
        assert distance_vector(w, r) == (-2,)

    def test_uniform_2d(self):
        w = ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [0, 0], is_write=True)
        r = ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [1, -1])
        assert distance_vector(w, r) == (-1, 1)

    def test_non_uniform_returns_none(self):
        a = ArrayRef("A", [AffineExpr([1])])
        b = ArrayRef("A", [AffineExpr([2])])
        assert distance_vector(a, b) is None

    def test_modular_returns_none(self):
        a = ArrayRef("A", [AffineExpr([1])])
        b = ArrayRef("A", [AffineExpr([1], 0, modulus=4)])
        assert distance_vector(a, b) is None


class TestFindDependences:
    def test_read_only_nest_has_none(self):
        nest = nest_1d(
            [ArrayRef("A", [AffineExpr([1])]), ArrayRef("A", [AffineExpr([1], 2)])]
        )
        assert find_dependences(nest) == []

    def test_write_read_pair_found(self):
        nest = nest_1d(
            [
                ArrayRef("A", [AffineExpr([1])], is_write=True),
                ArrayRef("A", [AffineExpr([1], 2)]),
            ]
        )
        deps = find_dependences(nest)
        assert len(deps) == 1
        assert deps[0].distance == (2,)  # canonicalised lex-positive

    def test_input_deps_optional(self):
        nest = nest_1d(
            [ArrayRef("A", [AffineExpr([1])]), ArrayRef("A", [AffineExpr([1], 2)])]
        )
        assert find_dependences(nest) == []

    def test_loop_independent_skipped(self):
        nest = nest_1d(
            [
                ArrayRef("A", [AffineExpr([1])], is_write=True),
                ArrayRef("A", [AffineExpr([1])]),
            ]
        )
        assert find_dependences(nest) == []

    def test_distances_canonical_lex_positive(self):
        nest = nest_1d(
            [
                ArrayRef("A", [AffineExpr([1])], is_write=True),
                ArrayRef("A", [AffineExpr([1], -3)]),
                ArrayRef("A", [AffineExpr([1], 3)]),
            ],
            n=32,
        )
        for dep in find_dependences(nest):
            assert dep.distance is not None
            lvl = carried_level(dep.distance)
            assert dep.distance[lvl] > 0


class TestCarriedLevel:
    def test_first_nonzero(self):
        assert carried_level((0, 2, -1)) == 1
        assert carried_level((3, 0)) == 0

    def test_all_zero(self):
        assert carried_level((0, 0)) == 2

    def test_dependence_level_property(self):
        d = Dependence(
            ArrayRef("A", [AffineExpr([1, 0])]),
            ArrayRef("A", [AffineExpr([1, 0])]),
            (0, 1),
        )
        assert d.level == 1
        assert Dependence(d.source, d.sink, None).level == 0


class TestParallelization:
    def test_fully_parallel_nest(self):
        nest = LoopNest(
            "p",
            IterationSpace([(0, 7), (0, 7)]),
            [ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [0, 0], is_write=True)],
        )
        assert parallelizable_loops(nest) == [True, True]
        assert outermost_parallel_loop(nest) == 0

    def test_outer_carried_dep(self):
        # A[i1, i2] = A[i1 - 1, i2]: carried at level 0, level 1 free.
        nest = LoopNest(
            "p",
            IterationSpace([(1, 7), (0, 7)]),
            [
                ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [0, 0], is_write=True),
                ArrayRef.from_matrix("A", [[1, 0], [0, 1]], [-1, 0]),
            ],
        )
        assert parallelizable_loops(nest) == [False, True]
        assert outermost_parallel_loop(nest) == 1

    def test_unknown_dep_blocks_everything(self):
        nest = nest_1d(
            [
                ArrayRef("A", [AffineExpr([1])], is_write=True),
                ArrayRef("A", [AffineExpr([1], 0, modulus=16)]),
            ],
            n=64,
        )
        assert parallelizable_loops(nest) == [False]
        assert outermost_parallel_loop(nest) is None
