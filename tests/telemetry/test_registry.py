"""Tests for the metrics registry: instrument semantics and activation."""

import pytest

from repro.telemetry import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    thread_registry,
    use_registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("clustering.merges")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative_increment(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("clustering.merges").inc(-1)

    def test_same_name_and_labels_is_same_instrument(self):
        reg = MetricsRegistry()
        reg.counter("a.b", level="L2").inc()
        reg.counter("a.b", level="L2").inc()
        assert reg.counter("a.b", level="L2").value == 2

    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        reg.counter("a.b", level="L1").inc(1)
        reg.counter("a.b", level="L2").inc(2)
        assert reg.counter("a.b", level="L1").value == 1
        assert reg.counter("a.b", level="L2").value == 2

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.counter("a.b", x="1", y="2").inc()
        reg.counter("a.b", y="2", x="1").inc()
        assert reg.counter("a.b", x="1", y="2").value == 2


class TestGauge:
    def test_set_keeps_last_value(self):
        reg = MetricsRegistry()
        g = reg.gauge("graph.nodes")
        g.set(10)
        g.set(3)
        assert g.value == 3


class TestHistogram:
    def test_streaming_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("balancing.imbalance")
        for x in (1.0, 2.0, 6.0):
            h.observe(x)
        assert h.count == 3
        assert h.sum == pytest.approx(9.0)
        assert h.min == pytest.approx(1.0)
        assert h.max == pytest.approx(6.0)
        assert h.mean == pytest.approx(3.0)

    def test_empty_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("x.y")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.as_dict() == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0
        }


class TestHistogramQuantiles:
    """Bucketed quantiles on the fixed log-spaced bounds."""

    def test_quantiles_land_near_exact(self):
        from repro.telemetry.registry import Histogram

        h = Histogram()
        values = [i / 1000.0 for i in range(1, 1001)]  # 1ms .. 1s uniform
        for v in values:
            h.observe(v)
        # Bounds are 10^(1/4) apart, so bucket interpolation stays well
        # within a factor of the exact empirical quantile.
        for q in (0.50, 0.95, 0.99):
            exact = values[int(q * len(values)) - 1]
            assert h.quantile(q) == pytest.approx(exact, rel=0.25)

    def test_quantile_clamped_to_observed_range(self):
        from repro.telemetry.registry import Histogram

        h = Histogram()
        h.observe(0.007)
        for q in (0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(0.007)

    def test_quantile_validates_q(self):
        from repro.telemetry.registry import Histogram

        h = Histogram()
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                h.quantile(bad)
        assert h.quantile(0.5) == 0.0  # empty histogram

    def test_as_dict_includes_quantiles_and_sparse_buckets(self):
        from repro.telemetry.registry import BUCKET_BOUNDS, Histogram

        h = Histogram()
        h.observe(0.5)
        h.observe(0.5)
        h.observe(200.0)
        doc = h.as_dict()
        assert {"p50", "p95", "p99", "buckets"} <= set(doc)
        assert doc["p50"] == pytest.approx(0.5, rel=0.5)
        assert sum(doc["buckets"].values()) == 3
        assert len(doc["buckets"]) == 2  # sparse: only occupied buckets
        for idx in doc["buckets"]:
            assert 0 <= int(idx) <= len(BUCKET_BOUNDS)

    def test_merge_composes_buckets_exactly(self):
        from repro.telemetry.registry import Histogram

        left, right, whole = Histogram(), Histogram(), Histogram()
        for i, v in enumerate(x / 100.0 for x in range(1, 201)):
            (left if i % 2 else right).observe(v)
            whole.observe(v)
        merged = Histogram()
        for part in (left, right):
            d = part.as_dict()
            merged.merge_summary(
                d["count"], d["sum"], d["min"], d["max"], d["buckets"]
            )
        assert merged.bucket_counts() == whole.bucket_counts()
        for q in (0.5, 0.95, 0.99):
            assert merged.quantile(q) == pytest.approx(whole.quantile(q))

    def test_merge_without_buckets_degrades_to_mean(self):
        from repro.telemetry.registry import Histogram

        h = Histogram()
        h.merge_summary(4, 2.0, 0.25, 1.0)  # pre-bucket snapshot shape
        assert h.count == 4
        assert sum(h.bucket_counts()) == 4
        # All four observations credited to the mean's (0.5) bucket.
        assert max(h.bucket_counts()) == 4
        assert h.quantile(0.5) == pytest.approx(0.5, rel=0.5)

    def test_merge_rejects_out_of_range_bucket(self):
        from repro.telemetry.registry import Histogram

        h = Histogram()
        with pytest.raises(ValueError):
            h.merge_summary(1, 1.0, 1.0, 1.0, {"9999": 1})


class TestNames:
    def test_rejects_bad_names(self):
        reg = MetricsRegistry()
        for bad in ("", "1abc", "a..b", "A.b", "a-b", "a.b."):
            with pytest.raises(ValueError):
                reg.counter(bad)

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(ValueError):
            reg.gauge("a.b")


class TestActivation:
    def test_default_active_registry_is_null(self):
        assert get_registry() is NULL_REGISTRY
        assert not get_registry().enabled

    def test_null_instruments_are_inert(self):
        null = NullRegistry()
        null.counter("a.b").inc(5)
        null.gauge("a.b").set(1)
        null.histogram("a.b").observe(2.0)
        assert null.as_dict() == {"counters": [], "gauges": [], "histograms": []}

    def test_use_registry_scopes_activation(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            assert get_registry() is reg
            get_registry().counter("a.b").inc()
        assert get_registry() is NULL_REGISTRY
        assert reg.counter("a.b").value == 1

    def test_use_registry_restores_on_error(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with use_registry(reg):
                raise RuntimeError("boom")
        assert get_registry() is NULL_REGISTRY

    def test_nested_use_registry_restores_the_outer(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_registry(outer):
            with use_registry(inner):
                assert get_registry() is inner
            assert get_registry() is outer
        assert get_registry() is NULL_REGISTRY

    def test_thread_registry_overrides_current_thread_only(self):
        import threading

        shared, private = MetricsRegistry(), MetricsRegistry()
        seen_by_other_thread = []

        def observe():
            seen_by_other_thread.append(get_registry())

        with use_registry(shared):
            with thread_registry(private):
                assert get_registry() is private
                t = threading.Thread(target=observe)
                t.start()
                t.join(10.0)
            assert get_registry() is shared
        assert seen_by_other_thread == [shared]

    def test_thread_registry_restores_on_error(self):
        private = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with thread_registry(private):
                raise RuntimeError("boom")
        assert get_registry() is NULL_REGISTRY

    def test_thread_registry_nests(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with thread_registry(outer):
            with thread_registry(inner):
                assert get_registry() is inner
            assert get_registry() is outer
        assert get_registry() is NULL_REGISTRY


class TestAsDict:
    def test_dump_layout(self):
        reg = MetricsRegistry()
        reg.counter("c.x", level="L1").inc(2)
        reg.gauge("g.y").set(1.5)
        reg.histogram("h.z").observe(0.5)
        dump = reg.as_dict()
        assert dump["counters"] == [
            {"name": "c.x", "labels": {"level": "L1"}, "value": 2}
        ]
        assert dump["gauges"] == [{"name": "g.y", "labels": {}, "value": 1.5}]
        (hist,) = dump["histograms"]
        assert hist["name"] == "h.z"
        assert hist["count"] == 1
        assert hist["sum"] == pytest.approx(0.5)
