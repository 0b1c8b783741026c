"""Tests for reuse-distance analysis, including a Mattson property check."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.reuse import reuse_distance_profile
from repro.hierarchy.policies import LRUPolicy


class TestReuseDistanceProfile:
    def test_all_cold(self):
        p = reuse_distance_profile(np.array([1, 2, 3]))
        assert p.cold_misses == 3
        assert p.num_reuses == 0

    def test_immediate_reuse_distance_zero(self):
        p = reuse_distance_profile(np.array([5, 5]))
        assert p.distances.tolist() == [0]

    def test_classic_example(self):
        # a b c b a : dist(b)=1 (c), dist(a)=2 (b, c distinct since first a)
        p = reuse_distance_profile(np.array([0, 1, 2, 1, 0]))
        assert sorted(p.distances.tolist()) == [1, 2]
        assert p.cold_misses == 3

    def test_repeated_chunk_counts_once(self):
        # a b b a : dist(b)=0, dist(a)=1 (only b distinct in between)
        p = reuse_distance_profile(np.array([0, 1, 1, 0]))
        assert sorted(p.distances.tolist()) == [0, 1]

    def test_empty(self):
        p = reuse_distance_profile(np.array([], dtype=np.int64))
        assert p.length == 0
        assert p.hit_rate(4) == 0.0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            reuse_distance_profile(np.zeros((2, 2)))

    def test_hit_rate_semantics(self):
        # a b a b : both reuses at distance 1 -> capacity 2 hits both.
        p = reuse_distance_profile(np.array([0, 1, 0, 1]))
        assert p.hit_rate(2) == pytest.approx(0.5)
        assert p.hit_rate(1) == pytest.approx(0.0)

    def test_percentile(self):
        p = reuse_distance_profile(np.array([0, 1, 2, 0, 1, 2]))
        assert p.percentile(50) == pytest.approx(2.0)

    def test_capacity_validated(self):
        p = reuse_distance_profile(np.array([1]))
        with pytest.raises(ValueError):
            p.hit_rate(0)


def lru_simulate_hits(trace, capacity):
    """Oracle: direct LRU simulation."""
    policy = LRUPolicy()
    hits = 0
    for chunk in trace:
        if chunk in policy:
            policy.touch(chunk)
            hits += 1
        else:
            if len(policy) >= capacity:
                policy.evict()
            policy.insert(chunk)
    return hits


@settings(max_examples=60)
@given(
    st.lists(st.integers(0, 8), min_size=1, max_size=80),
    st.integers(1, 10),
)
def test_mattson_inclusion_property(trace, capacity):
    """Reuse-distance hit counts == direct LRU simulation, any capacity."""
    t = np.asarray(trace, dtype=np.int64)
    profile = reuse_distance_profile(t)
    predicted_hits = int(np.count_nonzero(profile.distances < capacity))
    assert predicted_hits == lru_simulate_hits(trace, capacity)


@given(st.lists(st.integers(0, 12), min_size=1, max_size=60))
def test_hit_rate_monotone_in_capacity(trace):
    p = reuse_distance_profile(np.asarray(trace, dtype=np.int64))
    rates = [p.hit_rate(c) for c in (1, 2, 4, 8, 16)]
    assert rates == sorted(rates)
