"""Tests for the LFU policy (a related-work policy)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hierarchy.policies import LFUPolicy, make_policy


class TestLFU:
    def test_evicts_least_frequent(self):
        p = LFUPolicy()
        for c in (1, 2, 3):
            p.insert(c)
        p.touch(1)
        p.touch(1)
        p.touch(2)
        assert p.evict() == 3  # freq 1

    def test_ties_broken_by_recency(self):
        p = LFUPolicy()
        p.insert(1)
        p.insert(2)  # both freq 1; 1 is older
        assert p.evict() == 1

    def test_touch_refreshes_recency(self):
        p = LFUPolicy()
        p.insert(1)
        p.insert(2)
        p.touch(1)
        p.touch(2)  # equal freq again, 1 older now
        assert p.evict() == 1

    def test_frequency_survives_until_eviction(self):
        p = LFUPolicy()
        p.insert(1)
        for _ in range(5):
            p.touch(1)
        p.insert(2)
        p.insert(3)
        assert p.evict() == 2
        assert p.evict() == 3
        assert p.evict() == 1

    def test_clear(self):
        p = LFUPolicy()
        p.insert(1)
        p.clear()
        assert len(p) == 0

    def test_factory(self):
        assert make_policy("lfu").name == "lfu"


@pytest.mark.parametrize("name", ["lfu"])
class TestNewPoliciesCommonContract:
    def test_insert_evict_cycle(self, name):
        p = make_policy(name)
        for c in range(8):
            p.insert(c)
        seen = set()
        for _ in range(8):
            v = p.evict()
            assert v not in seen
            seen.add(v)
        assert len(p) == 0

    def test_double_insert_rejected(self, name):
        p = make_policy(name)
        p.insert(1)
        with pytest.raises(ValueError):
            p.insert(1)

    def test_touch_missing_raises(self, name):
        with pytest.raises(KeyError):
            make_policy(name).touch(9)

    def test_evict_empty_raises(self, name):
        with pytest.raises(RuntimeError):
            make_policy(name).evict()

    def test_size_never_negative_property(self, name):
        @settings(max_examples=30)
        @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
        def inner(accesses):
            p = make_policy(name)
            for chunk in accesses:
                if chunk in p:
                    p.touch(chunk)
                else:
                    if len(p) >= 3:
                        p.evict()
                    p.insert(chunk)
                assert 0 <= len(p) <= 3
                assert chunk in p

        inner()
