"""Tests for the bounded chunk cache."""

import pytest

from repro.hierarchy.cache import ChunkCache


class TestLookup:
    def test_miss_then_hit(self):
        c = ChunkCache(2)
        assert not c.lookup(1)
        c.fill(1)
        assert c.lookup(1)
        assert c.stats.accesses == 2
        assert c.stats.hits == 1
        assert c.stats.misses == 1

    def test_miss_does_not_insert(self):
        c = ChunkCache(2)
        c.lookup(1)
        assert not c.contains(1)

    def test_contains_no_side_effects(self):
        c = ChunkCache(2)
        c.fill(1)
        before = c.stats.accesses
        assert c.contains(1)
        assert c.stats.accesses == before


class TestFill:
    def test_eviction_at_capacity(self):
        c = ChunkCache(2)
        c.fill(1)
        c.fill(2)
        victim = c.fill(3)
        assert victim == 1  # LRU
        assert c.occupancy == 2
        assert c.stats.evictions == 1

    def test_fill_resident_is_noop(self):
        c = ChunkCache(2)
        c.fill(1)
        assert c.fill(1) is None
        assert c.occupancy == 1

    def test_fill_under_capacity_returns_none(self):
        c = ChunkCache(4)
        assert c.fill(9) is None

    def test_recency_interacts_with_lookup(self):
        c = ChunkCache(2)
        c.fill(1)
        c.fill(2)
        c.lookup(1)  # 1 becomes MRU
        assert c.fill(3) == 2


class TestReset:
    def test_reset_clears_everything(self):
        c = ChunkCache(2)
        c.lookup(1)
        c.fill(1)
        c.reset()
        assert c.occupancy == 0
        assert c.stats.accesses == 0


class TestConstruction:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ChunkCache(0)

    def test_policy_by_name(self):
        c = ChunkCache(2, policy="fifo")
        assert c.policy.name == "fifo"

    def test_dunder(self):
        c = ChunkCache(2, name="L1[x]")
        c.fill(3)
        assert len(c) == 1
        assert 3 in c
        assert "L1[x]" in repr(c)

    def test_resident_chunks(self):
        c = ChunkCache(3)
        for k in (5, 6):
            c.fill(k)
        assert sorted(c.resident_chunks()) == [5, 6]
