"""Tests for cache statistics."""

from repro.hierarchy.stats import CacheStats


class TestCacheStats:
    def test_rates(self):
        st = CacheStats()
        for _ in range(3):
            st.record_hit()
        st.record_miss()
        assert st.accesses == 4
        assert st.miss_rate == 0.25
        assert st.hit_rate == 0.75

    def test_untouched_cache_rates_are_zero(self):
        st = CacheStats()
        assert st.miss_rate == 0.0
        assert st.hit_rate == 0.0

    def test_fills_and_evictions(self):
        st = CacheStats()
        st.record_fill()
        st.record_eviction()
        assert st.fills == 1 and st.evictions == 1

    def test_merge(self):
        a = CacheStats(accesses=10, hits=6, misses=4, fills=4, evictions=1)
        b = CacheStats(accesses=2, hits=0, misses=2, fills=2, evictions=0)
        m = a.merge(b)
        assert m.accesses == 12 and m.hits == 6 and m.misses == 6
        assert m.fills == 6 and m.evictions == 1
        # merge does not mutate inputs
        assert a.accesses == 10 and b.accesses == 2

    def test_reset(self):
        st = CacheStats(accesses=5, hits=5)
        st.reset()
        assert st.accesses == 0 and st.hits == 0

    def test_repr(self):
        assert "miss_rate" in repr(CacheStats(accesses=2, misses=1, hits=1))


class TestWritebacks:
    def test_record_writeback(self):
        st = CacheStats()
        st.record_writeback()
        st.record_writeback()
        assert st.writebacks == 2

    def test_merge_preserves_writebacks(self):
        a = CacheStats(writebacks=3)
        b = CacheStats(writebacks=4)
        assert a.merge(b).writebacks == 7

    def test_merge_reset_round_trip(self):
        a = CacheStats(
            accesses=10, hits=6, misses=4, cold_misses=1,
            fills=4, evictions=2, writebacks=3,
        )
        b = CacheStats(
            accesses=5, hits=2, misses=3, cold_misses=2,
            fills=3, evictions=1, writebacks=1,
        )
        m = a.merge(b)
        assert m.as_dict() == {
            "accesses": 15, "hits": 8, "misses": 7, "cold_misses": 3,
            "fills": 7, "evictions": 3, "writebacks": 4,
        }
        m.reset()
        assert m.as_dict() == CacheStats().as_dict()

    def test_repr_includes_writebacks(self):
        assert "writebacks=5" in repr(CacheStats(writebacks=5))


class TestPublish:
    def test_bridges_counters_into_registry(self):
        from repro.telemetry import MetricsRegistry

        reg = MetricsRegistry()
        st = CacheStats(accesses=10, hits=6, misses=4, writebacks=2)
        st.publish(reg, level="L2")
        assert reg.counter("cache.accesses", level="L2").value == 10
        assert reg.counter("cache.hits", level="L2").value == 6
        assert reg.counter("cache.writebacks", level="L2").value == 2

    def test_zero_counters_not_created(self):
        from repro.telemetry import MetricsRegistry

        reg = MetricsRegistry()
        CacheStats().publish(reg, level="L1")
        assert len(reg) == 0

