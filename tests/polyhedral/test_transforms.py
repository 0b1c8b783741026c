"""Tests for loop permutation and tiling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.transforms import (
    legal_permutations,
    permutation_is_legal,
    permute_iterations,
    tile_iterations,
)


@pytest.fixture
def grid():
    return IterationSpace([(0, 2), (0, 3)])


class TestPermuteIterations:
    def test_interchange(self, grid):
        its = grid.enumerate()
        out = permute_iterations(its, [1, 0])
        # Column order preserved, but traversal is j-major now.
        assert out[0].tolist() == [0, 0]
        assert out[1].tolist() == [1, 0]
        assert out[2].tolist() == [2, 0]

    def test_identity_is_noop(self, grid):
        its = grid.enumerate()
        assert np.array_equal(permute_iterations(its, [0, 1]), its)

    def test_same_multiset(self, grid):
        its = grid.enumerate()
        out = permute_iterations(its, [1, 0])
        assert sorted(map(tuple, out)) == sorted(map(tuple, its))

    def test_rejects_non_permutation(self, grid):
        with pytest.raises(ValueError):
            permute_iterations(grid.enumerate(), [0, 0])

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            permute_iterations(np.array([1, 2]), [0])

    @settings(max_examples=20)
    @given(st.permutations(range(3)))
    def test_lexicographic_in_permuted_view(self, perm):
        sp = IterationSpace([(0, 2), (0, 1), (0, 2)])
        out = permute_iterations(sp.enumerate(), list(perm))
        keys = [tuple(row[p] for p in perm) for row in out]
        assert keys == sorted(keys)


class TestTileIterations:
    def test_tiling_reorders_into_blocks(self):
        sp = IterationSpace([(0, 3), (0, 3)])
        out = tile_iterations(sp.enumerate(), [2, 2])
        # First tile is the 2x2 block at origin.
        assert sorted(map(tuple, out[:4])) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        # Second tile: columns 2..3 of rows 0..1.
        assert sorted(map(tuple, out[4:8])) == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_zero_tile_means_untiled(self):
        sp = IterationSpace([(0, 3), (0, 3)])
        its = sp.enumerate()
        assert np.array_equal(tile_iterations(its, [0, 0]), its)

    def test_same_multiset(self):
        sp = IterationSpace([(0, 4), (0, 4)])
        its = sp.enumerate()
        out = tile_iterations(its, [3, 2])
        assert sorted(map(tuple, out)) == sorted(map(tuple, its))

    def test_respects_nonzero_lowers(self):
        sp = IterationSpace([(2, 5)])
        out = tile_iterations(sp.enumerate(), [2])
        assert out[:2, 0].tolist() == [2, 3]

    def test_tile_size_count_checked(self):
        sp = IterationSpace([(0, 3), (0, 3)])
        with pytest.raises(ValueError):
            tile_iterations(sp.enumerate(), [2])


class TestPermutationLegality:
    def test_identity_always_legal(self):
        assert permutation_is_legal([0, 1], [(1, -1)])

    def test_interchange_flips_negative(self):
        # Distance (1, -1): interchanged becomes (-1, 1) -> illegal.
        assert not permutation_is_legal([1, 0], [(1, -1)])

    def test_interchange_of_nonnegative_ok(self):
        assert permutation_is_legal([1, 0], [(1, 1), (0, 2)])

    def test_unknown_distance_blocks_non_identity(self):
        assert permutation_is_legal([0, 1], [None])
        assert not permutation_is_legal([1, 0], [None])

    def test_legal_permutations_enumeration(self):
        perms = legal_permutations(2, [(1, -1)])
        assert perms == [(0, 1)]

    def test_no_deps_all_legal(self):
        assert len(legal_permutations(3, [])) == 6
