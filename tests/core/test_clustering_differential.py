"""Differential: array-native Stage 1 merging vs the ``Cluster``-object loop.

``_merge_down`` keeps only supports, sizes and a best-partner cache as
arrays and builds ``Cluster`` objects for the survivors; the oracle
merges ``Cluster`` objects and maintains the full pairwise matrix ``W``.
Survivors must match exactly: member lists (order included), count
signatures and sizes, for every merge target.  Narrow tag widths and
low densities make tied dot products the common case, and forced
groups (the dependence-fuse path) start the merge from multi-chunk
clusters.
"""

import numpy as np
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
    """A pool of random 0/1 supports, a member order and forced groups."""
    r = draw(st.integers(1, 6))
    n = draw(st.integers(2, 24))
    density = draw(st.sampled_from([0.0, 0.1, 0.2, 0.35, 0.6]))
    rnd = draw(st.randoms(use_true_random=False))
    tag_sets = [{c for c in range(r) if rnd.random() < density} for _ in range(n)]
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
