"""Differential: array-native Stage 1 merging vs the ``Cluster``-object loop.

``_merge_down`` keeps only supports, sizes and a best-partner cache as
arrays and builds ``Cluster`` objects for the survivors; the oracle
merges ``Cluster`` objects and maintains the full pairwise matrix ``W``.
Survivors must match exactly: member lists (order included), count
signatures and sizes, for every merge target.  Low densities make tied
dot products the common case, tag columns no chunk uses exercise the
merge's column compaction, and forced groups (the dependence-fuse path)
start the merge from multi-chunk clusters.  Two pinned cases cover the
best-partner cache's stale pointers: an absorbed cluster with a tied
third best, and a cached partner absorbed along a chain of merges.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.balancing import TagMatrix
from repro.core.chunking import IterationChunk
from repro.core.clustering import (
    _make_cluster,
    _merge_down,
    _union_find_groups,
    cluster_into,
)
from repro.util.bitset import Tag

from tests.core import scalar_reference


def make_pool(tag_sets, sizes, r):
    pool = []
    rank = 0
    for chunks, size in zip(tag_sets, sizes):
        pool.append(IterationChunk(Tag(chunks, r), np.arange(rank, rank + size)))
        rank += size
    return pool


@st.composite
def stage1_inputs(draw):
    """A pool of random 0/1 supports, a member order and forced groups.

    Some tag columns are never used, so the merge drops them, and wide
    pools run long merges.
    """
    r = draw(st.integers(1, 40))
    n = draw(st.integers(2, 48))
    density = draw(st.sampled_from([0.0, 0.1, 0.2, 0.35, 0.6]))
    rnd = draw(st.randoms(use_true_random=False))
    columns = [c for c in range(r) if rnd.random() < 0.75]
    tag_sets = [{c for c in columns if rnd.random() < density} for _ in range(n)]
    sizes = [draw(st.sampled_from([1, 2, 3, 5, 8])) for _ in range(n)]
    pool = make_pool(tag_sets, sizes, r)
    member_ids = list(range(n))
    rnd.shuffle(member_ids)
    n_pairs = draw(st.integers(0, n // 2))
    pairs = {tuple(sorted(rnd.sample(range(n), 2))) for _ in range(n_pairs)}
    return pool, r, member_ids, pairs


def initial_groups(member_ids, pairs):
    """The initial clusters ``cluster_into`` builds: forced groups or singletons."""
    local = {m: k for k, m in enumerate(member_ids)}
    local_pairs = {(local[a], local[b]) for a, b in pairs}
    groups = _union_find_groups(len(member_ids), local_pairs)
    return [[member_ids[i] for i in g] for g in groups]


def assert_same_clusters(got, expected):
    assert [c.members for c in got] == [c.members for c in expected]
    assert [c.size for c in got] == [c.size for c in expected]
    for g, e in zip(got, expected):
        assert g.signature.dtype == e.signature.dtype
        assert np.array_equal(g.signature, e.signature)


def oracle(groups, pool, r, tags, target):
    clusters = [_make_cluster(g, pool, r, tags) for g in groups]
    return scalar_reference.merge_down(clusters, target, r)


@settings(max_examples=300, deadline=None)
@given(stage1_inputs())
def test_merge_down_matches_oracle_for_every_target(inputs):
    pool, r, member_ids, pairs = inputs
    tags = TagMatrix(pool, r)
    groups = initial_groups(member_ids, pairs)
    for target in range(1, len(groups)):
        got = _merge_down([list(g) for g in groups], pool, tags, target)
        assert_same_clusters(got, oracle(groups, pool, r, tags, target))


@settings(max_examples=100, deadline=None)
@given(stage1_inputs(), st.integers(1, 24))
def test_cluster_into_matches_oracle(inputs, target):
    pool, r, member_ids, pairs = inputs
    tags = TagMatrix(pool, r)
    groups = initial_groups(member_ids, pairs)
    target = min(target, len(groups))
    got = cluster_into(member_ids, pool, target, r, pairs, tags)
    if target < len(groups):
        expected = oracle(groups, pool, r, tags, target)
    else:
        expected = [_make_cluster(g, pool, r, tags) for g in groups]
    assert_same_clusters(got, expected)


def test_absorbed_cluster_with_tied_third_best_stays_dead():
    # Tags {0,1}, {2}, {2}, {0,1,2}.  Merge 1 takes 3 into 0; merge 2
    # takes 1 into 0, and 1's cached best partner is then 2, tied with 0
    # at one shared chunk.  Cluster 1 must stay dead afterwards: if it
    # kept its stale best weight it would be picked again and chunks 0
    # and 3 would vanish from the partition.
    r = 3
    pool = make_pool([{0, 1}, {2}, {2}, {0, 1, 2}], [4, 4, 4, 4], r)
    tags = TagMatrix(pool, r)
    groups = [[m] for m in range(4)]
    got = _merge_down([list(g) for g in groups], pool, tags, 2)
    assert [c.members for c in got] == [[0, 3, 1], [2]]
    assert_same_clusters(got, oracle(groups, pool, r, tags, 2))


def test_partner_absorbed_along_a_chain_resolves_to_its_survivor():
    # Row 0 ({3, 5}) caches row 4 as its best partner (two shared
    # chunks) and no later merge beats that, so its pointer is never
    # refreshed while 4 goes into 3, 3 into 2 and 2 into 1.  The last
    # pick, row 0, must follow 4 -> 3 -> 2 -> 1 to the live row 1.
    r = 8
    pool = make_pool(
        [{3, 5}, {1, 3, 7}, {1, 4, 6, 7}, {1, 2, 3, 4, 6}, {2, 3, 4, 5, 7},
         {2, 3, 4, 5, 6}],
        [2, 3, 5, 7, 11, 13],
        r,
    )
    tags = TagMatrix(pool, r)
    groups = [[m] for m in range(6)]
    got = _merge_down([list(g) for g in groups], pool, tags, 1)
    assert [c.members for c in got] == [[0, 1, 2, 3, 5, 4]]
    assert got[0].size == 41
    for target in range(1, 6):
        got = _merge_down([list(g) for g in groups], pool, tags, target)
        assert_same_clusters(got, oracle(groups, pool, r, tags, target))


def test_merge_rejects_widths_float32_cannot_count_exactly():
    class WideTags:
        """2**24 used tag columns, as a zero-copy broadcast view."""

        def rows(self, members):
            return np.broadcast_to(np.ones(1), (len(members), 1 << 24))

    pool = make_pool([{0}, {0}], [1, 1], 1)
    with pytest.raises(ValueError, match=r"2\*\*24"):
        _merge_down([[0], [1]], pool, WideTags(), 1)
