"""Differential: rank-space Intra-processor orders vs the transform API.

The Intra mapper builds every candidate order directly as lexicographic
ranks (a transposed or tile-padded ``arange`` grid).  Each must equal
``space.linearize`` of the explicit transform, and the whole search
must pick the same order as the per-permutation re-tiling loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.baselines import IntraProcessorMapper, permuted_ranks, tiled_ranks
from repro.hierarchy.topology import uniform_hierarchy
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.arrays import DataSpace, DiskArray
from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef
from repro.polyhedral.transforms import permute_iterations, tile_iterations
from repro.telemetry import MetricsRegistry, use_registry

from tests.core.scalar_reference import intra_order


@st.composite
def spaces(draw, max_depth=4):
    depth = draw(st.integers(1, max_depth))
    bounds = []
    for _ in range(depth):
        lo = draw(st.integers(-3, 3))
        bounds.append((lo, lo + draw(st.integers(0, 6))))
    return IterationSpace(bounds)


@settings(max_examples=300, deadline=None)
@given(spaces(), st.data())
def test_permuted_ranks_match_permute_iterations(space, data):
    perm = data.draw(st.permutations(range(space.depth)))
    expected = space.linearize(permute_iterations(space.enumerate(), perm))
    assert np.array_equal(permuted_ranks(space.shape, perm), expected)


@settings(max_examples=300, deadline=None)
@given(spaces(), st.integers(1, 9))
def test_tiled_ranks_match_tile_iterations(space, tile):
    # Tiles that do not divide the extents and tiles >= an extent included.
    expected = space.linearize(
        tile_iterations(space.enumerate(), [tile] * space.depth)
    )
    got = tiled_ranks(space.shape, tile)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)


@settings(max_examples=200, deadline=None)
@given(spaces(), st.integers(1, 9), st.randoms(use_true_random=False))
def test_tile_iterations_ignores_input_order(space, tile, rnd):
    """Why the search scores a tiled order once, not once per permutation."""
    its = space.enumerate()
    shuffled = its[rnd.sample(range(len(its)), len(its))]
    sizes = [tile] * space.depth
    assert np.array_equal(
        tile_iterations(shuffled, sizes), tile_iterations(its, sizes)
    )


@st.composite
def nests(draw):
    """Small nests with affine refs (dependences, permutations, tiling)
    and the occasional ``%`` ref (unknown dependences block transforms)."""
    depth = draw(st.integers(1, 3))
    extents = [draw(st.integers(1, 7)) for _ in range(depth)]
    space = IterationSpace.from_extents(extents)
    ndim = draw(st.integers(1, 2))
    # Refs mostly share one loop-to-dimension map (uniform: exact
    # distances, some with negative components); the rest differ or
    # carry a ``%`` (unknown dependences, no transforms).
    base = [draw(st.integers(0, depth - 1)) for _ in range(ndim)]
    refs, need = [], [1] * ndim
    for k in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["uniform", "uniform", "uniform", "other", "mod"]))
        exprs = []
        for d in range(ndim):
            if kind == "mod":
                mod = draw(st.integers(1, 5))
                coeffs = draw(st.lists(st.integers(0, 2), min_size=depth, max_size=depth))
                exprs.append(AffineExpr(coeffs, draw(st.integers(0, 3)), mod))
                need[d] = max(need[d], mod)
                continue
            loop = base[d] if kind == "uniform" else draw(st.integers(0, depth - 1))
            offset = draw(st.integers(0, 2))
            coeffs = [0] * depth
            coeffs[loop] = 1
            exprs.append(AffineExpr(coeffs, offset))
            need[d] = max(need[d], extents[loop] + offset)
        refs.append(ArrayRef("A", exprs, is_write=(k == 0)))
    chunk_elems = draw(st.sampled_from([1, 2, 3, 4, 8]))
    ds = DataSpace([DiskArray("A", tuple(need))], chunk_elems)
    return LoopNest("t", space, refs), ds


@settings(max_examples=250, deadline=None)
@given(
    nests(),
    st.lists(st.integers(0, 9), min_size=1, max_size=6),
    st.integers(1, 4),
)
def test_search_matches_per_permutation_retiling(case, tiles, clients):
    nest, ds = case
    hierarchy = uniform_hierarchy([clients], [4])
    expected = intra_order(nest, ds, clients, tuple(tiles))
    mapping = IntraProcessorMapper(tiles).map(nest, ds, hierarchy)
    assert sorted(mapping.client_order) == sorted(expected)
    for c, ranks in expected.items():
        assert np.array_equal(mapping.client_order[c], ranks), c


def _skewed_nest():
    # Distance (1, -1): interchange and tiling are both illegal.
    space = IterationSpace.from_extents([6, 7])
    w = ArrayRef("A", [AffineExpr([1, 0], 1), AffineExpr([0, 1])], is_write=True)
    r = ArrayRef("A", [AffineExpr([1, 0]), AffineExpr([0, 1], 1)])
    return LoopNest("skew", space, [w, r]), DataSpace([DiskArray("A", (7, 8))], 3)


def _shifted_nest():
    # Distance (1, 1, 0): permutations keeping it positive, tiling legal.
    space = IterationSpace([(1, 5), (-2, 6), (0, 3)])
    w = ArrayRef("A", [AffineExpr([0, 1, 0], 3), AffineExpr([1, 0, 0])], is_write=True)
    r = ArrayRef("A", [AffineExpr([0, 1, 0], 2), AffineExpr([1, 0, 0], -1)])
    t = ArrayRef("B", [AffineExpr([0, 0, 1]), AffineExpr([1, 0, 0], -1)])
    arrays = [DiskArray("A", (10, 6)), DiskArray("B", (4, 5))]
    return LoopNest("shift", space, [w, r, t]), DataSpace(arrays, 2)


@pytest.mark.parametrize("build", [_skewed_nest, _shifted_nest])
@pytest.mark.parametrize("tiles", [(0, 2, 4, 8), (4, 0, 2), (3,), (2, 3, 2, 0)])
def test_search_matches_on_fixed_nests(build, tiles):
    nest, ds = build()
    expected = intra_order(nest, ds, 3, tiles)
    mapping = IntraProcessorMapper(tiles).map(nest, ds, uniform_hierarchy([3], [4]))
    for c, ranks in expected.items():
        assert np.array_equal(mapping.client_order[c], ranks), c


def test_candidates_count_distinct_orders():
    # A 2-deep, dependence-free nest: 2 permutations, 2 tiles below the
    # largest extent (8 >= max(6, 8) is the untiled order).
    space = IterationSpace.from_extents([6, 8])
    ref = ArrayRef("A", [AffineExpr([1, 0]), AffineExpr([0, 1])])
    nest = LoopNest("t", space, [ref])
    ds = DataSpace([DiskArray("A", (6, 8))], 4)
    registry = MetricsRegistry()
    with use_registry(registry):
        IntraProcessorMapper((0, 2, 4, 8)).map(nest, ds, uniform_hierarchy([2], [4]))
    assert registry.counter("baselines.intra.candidates").value == 2 + 2


def test_negative_tile_rejected():
    with pytest.raises(ValueError):
        IntraProcessorMapper((0, -4))
