"""Tests for replacement policies, including a reference-model property check."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hierarchy.policies import (
    FIFOPolicy,
    LRUPolicy,
    make_policy,
)


@pytest.fixture(params=["lru", "fifo", "rrip", "arc"])
def policy(request):
    return make_policy(request.param, capacity=16)


class TestCommonBehaviour:
    def test_insert_and_contains(self, policy):
        policy.insert(5)
        assert 5 in policy
        assert len(policy) == 1

    def test_double_insert_rejected(self, policy):
        policy.insert(1)
        with pytest.raises(ValueError):
            policy.insert(1)

    def test_touch_missing_raises(self, policy):
        with pytest.raises(KeyError):
            policy.touch(42)

    def test_remove(self, policy):
        policy.insert(1)
        policy.remove(1)
        assert 1 not in policy
        with pytest.raises(KeyError):
            policy.remove(1)

    def test_evict_empty_raises(self, policy):
        with pytest.raises(RuntimeError):
            policy.evict()

    def test_evict_removes_something_resident(self, policy):
        for c in range(4):
            policy.insert(c)
        victim = policy.evict()
        assert victim in range(4)
        assert victim not in policy
        assert len(policy) == 3

    def test_clear(self, policy):
        policy.insert(1)
        policy.clear()
        assert len(policy) == 0

    def test_resident_lists_all(self, policy):
        for c in (3, 1, 2):
            policy.insert(c)
        assert sorted(policy.resident()) == [1, 2, 3]


class TestLRU:
    def test_evicts_least_recently_used(self):
        p = LRUPolicy()
        for c in (1, 2, 3):
            p.insert(c)
        p.touch(1)  # order now 2, 3, 1
        assert p.evict() == 2
        assert p.evict() == 3
        assert p.evict() == 1

    def test_insert_order_without_touches(self):
        p = LRUPolicy()
        for c in (7, 8, 9):
            p.insert(c)
        assert p.evict() == 7


class TestFIFO:
    def test_touch_does_not_refresh(self):
        p = FIFOPolicy()
        for c in (1, 2, 3):
            p.insert(c)
        p.touch(1)
        assert p.evict() == 1  # still first in


class TestFactory:
    def test_known_names(self):
        assert make_policy("LRU").name == "lru"
        assert make_policy("fifo").name == "fifo"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("plru")


class ReferenceLRU:
    """Oracle: list-based LRU."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []

    def access(self, chunk):
        hit = chunk in self.order
        if hit:
            self.order.remove(chunk)
        elif len(self.order) >= self.capacity:
            self.order.pop(0)
        self.order.append(chunk)
        return hit


@settings(max_examples=50)
@given(
    st.integers(1, 6),
    st.lists(st.integers(0, 9), min_size=1, max_size=60),
)
def test_lru_matches_reference_model(capacity, accesses):
    """Hit/miss sequence of LRUPolicy == oracle, for any trace."""
    policy = LRUPolicy()
    oracle = ReferenceLRU(capacity)
    for chunk in accesses:
        expect_hit = oracle.access(chunk)
        got_hit = chunk in policy
        assert got_hit == expect_hit
        if got_hit:
            policy.touch(chunk)
        else:
            if len(policy) >= capacity:
                policy.evict()
            policy.insert(chunk)
