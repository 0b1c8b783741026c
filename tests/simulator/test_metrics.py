"""Tests for result containers and normalization."""

import numpy as np
import pytest

from repro.hierarchy.stats import CacheStats
from repro.simulator.metrics import ExperimentResult, SimulationResult


def sim(io=(10.0, 20.0), compute=(1.0, 1.0), sync=(0.0, 0.0), stats=None):
    stats = stats or {
        "L1": CacheStats(accesses=100, hits=80, misses=20),
        "L2": CacheStats(accesses=20, hits=10, misses=10),
    }
    return SimulationResult(
        per_client_io_ms=np.array(io),
        per_client_compute_ms=np.array(compute),
        per_client_sync_ms=np.array(sync),
        level_stats=stats,
        disk_reads=10,
        disk_busy_ms=50.0,
    )


class TestSimulationResult:
    def test_io_latency_is_slowest_client(self):
        assert sim().io_latency_ms == 20.0

    def test_sync_included_in_io(self):
        assert sim(sync=(50.0, 0.0)).io_latency_ms == 60.0

    def test_execution_time(self):
        assert sim().execution_time_ms == 21.0

    def test_miss_rates(self):
        s = sim()
        assert s.miss_rate("L1") == pytest.approx(0.2)
        assert s.miss_rates()["L2"] == pytest.approx(0.5)

    def test_total_hits_and_accesses(self):
        s = sim()
        assert s.total_cache_hits() == 90
        assert s.total_accesses() == 100

    def test_num_clients(self):
        assert sim().num_clients == 2


class TestExperimentResult:
    def test_normalized_against(self):
        base = ExperimentResult("w", "original", sim(io=(10.0, 40.0)))
        ours = ExperimentResult("w", "inter", sim(io=(10.0, 20.0)))
        norm = ours.normalized_against(base)
        assert norm["io_latency"] == pytest.approx(0.5)
        assert norm["miss_rate_L1"] == pytest.approx(1.0)

    def test_zero_baseline_convention(self):
        empty_stats = {
            "L1": CacheStats(),
            "L2": CacheStats(),
        }
        base = ExperimentResult("w", "original", sim(stats=empty_stats))
        ours = ExperimentResult("w", "inter", sim())
        norm = ours.normalized_against(base)
        assert norm["miss_rate_L1"] == 1.0

    def test_properties_passthrough(self):
        r = ExperimentResult("w", "inter", sim(), mapping_time_s=1.5)
        assert r.io_latency_ms == 20.0
        assert r.execution_time_ms == 21.0
        assert r.miss_rate("L2") == pytest.approx(0.5)
        assert r.mapping_time_s == 1.5

    def test_repr(self):
        assert "inter" in repr(ExperimentResult("w", "inter", sim()))
