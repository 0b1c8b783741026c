"""Tests for the system configuration (Table 1 analogue)."""

import pytest

from repro.experiments.config import (
    DEFAULT_CONFIG,
    PAPER_TABLE1,
    SystemConfig,
    scaled_config,
)


class TestPaperTable1:
    def test_literal_values(self):
        assert PAPER_TABLE1["num_clients"] == 64
        assert PAPER_TABLE1["num_io_nodes"] == 32
        assert PAPER_TABLE1["num_storage_nodes"] == 16
        assert PAPER_TABLE1["data_chunk_kb"] == 64
        assert PAPER_TABLE1["stripe_size_kb"] == 64
        assert PAPER_TABLE1["rpm"] == 10_000
        assert PAPER_TABLE1["cache_capacity_per_node_gb"] == (2, 2, 2)


class TestSystemConfig:
    def test_default_topology_matches_table1(self):
        assert DEFAULT_CONFIG.num_clients == 64
        assert DEFAULT_CONFIG.num_io_nodes == 32
        assert DEFAULT_CONFIG.num_storage_nodes == 16
        assert DEFAULT_CONFIG.chunk_elems == 64  # 64 KB analogue

    def test_data_chunks_derived(self):
        assert DEFAULT_CONFIG.data_chunks == DEFAULT_CONFIG.data_elems // 64

    def test_capacity_chunks(self):
        cfg = SystemConfig(cache_elems=(640, 1280, 2560), chunk_elems=64)
        assert cfg.capacity_chunks(0) == 10
        assert cfg.capacity_chunks(1) == 20
        assert cfg.capacity_chunks(2) == 40

    def test_capacity_floor_one_chunk(self):
        cfg = SystemConfig(cache_elems=(10, 10, 10), chunk_elems=64)
        assert cfg.capacity_chunks(0) == 1

    def test_build_hierarchy(self):
        h = scaled_config(8).build_hierarchy()
        assert h.num_clients == 8
        assert h.level_names() == ["L1", "L2", "L3"]

    def test_with_topology(self):
        cfg = DEFAULT_CONFIG.with_topology(128, 32, 16)
        assert cfg.num_clients == 128
        assert cfg.cache_elems == DEFAULT_CONFIG.cache_elems

    def test_with_cache_capacities(self):
        cfg = DEFAULT_CONFIG.with_cache_capacities(512, 512, 512)
        assert cfg.cache_elems == (512, 512, 512)

    def test_with_chunk_elems_preserves_bytes(self):
        cfg = DEFAULT_CONFIG.with_chunk_elems(16)
        assert cfg.data_elems == DEFAULT_CONFIG.data_elems
        assert cfg.data_chunks == 4 * DEFAULT_CONFIG.data_chunks

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(num_clients=0)
        with pytest.raises(ValueError):
            SystemConfig(cache_elems=(1, 2))
        with pytest.raises(ValueError):
            SystemConfig(balance_threshold=2.0)

    @pytest.mark.parametrize("name", ["bogus", "LRU"])
    def test_policy_must_be_an_exact_registered_name(self, name):
        # ``policy`` is fingerprinted as written, like ``policies``: a
        # case variant would key apart from the same machine.
        with pytest.raises(ValueError, match="unknown policy"):
            SystemConfig(policy=name)
        with pytest.raises(ValueError, match="unknown policy"):
            SystemConfig(policies=("lru", name, "lru"))


class TestScaledConfig:
    def test_ratios_preserved(self):
        for scale in (2, 4, 8, 16):
            cfg = scaled_config(scale)
            assert cfg.num_clients * scale == DEFAULT_CONFIG.num_clients
            assert (
                cfg.num_clients // cfg.num_io_nodes
                == DEFAULT_CONFIG.num_clients // DEFAULT_CONFIG.num_io_nodes
            )
            assert (
                cfg.data_elems * scale == DEFAULT_CONFIG.data_elems
            )

    def test_overrides(self):
        cfg = scaled_config(4, seed=7, policy="fifo")
        assert cfg.seed == 7 and cfg.policy == "fifo"

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            scaled_config(3)
        with pytest.raises(ValueError):
            scaled_config(0)
