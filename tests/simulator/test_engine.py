"""Tests for the interleaved simulation engine."""

import numpy as np
import pytest

from repro.hierarchy.topology import three_level_hierarchy
from repro.simulator.engine import LatencyModel, interleave_order, simulate
from repro.storage.filesystem import ParallelFileSystem


def make_system(clients=4, l1=2, l2=4, l3=8):
    h = three_level_hierarchy(clients, clients // 2, 1, (l1, l2, l3))
    fs = ParallelFileSystem(1, chunk_bytes=64 * 1024)
    return h, fs


class TestLatencyModel:
    def test_hit_cost_cumulative(self):
        lm = LatencyModel(level_ms=(1.0, 2.0, 4.0))
        assert lm.hit_cost(0) == 1.0
        assert lm.hit_cost(1) == 3.0
        assert lm.hit_cost(2) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyModel(level_ms=())
        with pytest.raises(ValueError):
            LatencyModel(level_ms=(-1.0,))
        with pytest.raises(ValueError):
            LatencyModel(sync_stall_ms=-1)


class TestInterleaveOrder:
    def test_round_robin(self):
        clients, pos = interleave_order([2, 2])
        assert clients.tolist() == [0, 1, 0, 1]
        assert pos.tolist() == [0, 0, 1, 1]

    def test_uneven_lengths(self):
        clients, pos = interleave_order([3, 1])
        assert clients.tolist() == [0, 1, 0, 0]
        assert pos.tolist() == [0, 0, 1, 2]

    def test_empty(self):
        clients, pos = interleave_order([])
        assert len(clients) == 0 and len(pos) == 0

    def test_zero_length_client(self):
        clients, pos = interleave_order([0, 2])
        assert clients.tolist() == [1, 1]


class TestInterleaveOrderEdgeCases:
    def test_empty_returns_int64_arrays(self):
        clients, pos = interleave_order([])
        assert clients.dtype == np.int64 and pos.dtype == np.int64
        assert clients.shape == (0,) and pos.shape == (0,)

    def test_all_clients_empty(self):
        clients, pos = interleave_order([0, 0, 0])
        assert clients.tolist() == [] and pos.tolist() == []

    def test_empty_client_in_the_middle(self):
        clients, pos = interleave_order([2, 0, 3])
        # Client 1 never appears; rounds still interleave 0 and 2.
        assert 1 not in clients.tolist()
        assert clients.tolist() == [0, 2, 0, 2, 2]
        assert pos.tolist() == [0, 0, 1, 1, 2]

    def test_single_client_is_its_own_stream(self):
        clients, pos = interleave_order([5])
        assert clients.tolist() == [0] * 5
        assert pos.tolist() == list(range(5))

    def test_order_is_permutation_of_all_accesses(self):
        lengths = [3, 0, 5, 1]
        clients, pos = interleave_order(lengths)
        pairs = sorted(zip(clients.tolist(), pos.tolist()))
        expected = sorted(
            (c, p) for c, n in enumerate(lengths) for p in range(n)
        )
        assert pairs == expected


class TestSimulate:
    def test_compulsory_misses_only(self):
        h, fs = make_system()
        streams = {c: np.array([c]) for c in range(4)}
        res = simulate(streams, h, fs)
        assert res.level_stats["L1"].misses == 4
        assert res.disk_reads == 4

    def test_repeat_hits_l1(self):
        h, fs = make_system()
        streams = {0: np.array([7, 7, 7])}
        streams.update({c: np.empty(0, dtype=np.int64) for c in (1, 2, 3)})
        res = simulate(streams, h, fs)
        assert res.level_stats["L1"].hits == 2
        assert res.disk_reads == 1

    def test_sibling_sharing_hits_l2(self):
        h, fs = make_system()
        # Clients 0 and 1 share an L2; 1 requests what 0 just fetched
        # after 0 displaced it from its own (2-entry) L1.
        streams = {
            0: np.array([5, 1, 2]),
            1: np.array([9, 5]),
            2: np.empty(0, dtype=np.int64),
            3: np.empty(0, dtype=np.int64),
        }
        res = simulate(streams, h, fs)
        assert res.level_stats["L2"].hits >= 1

    def test_inclusive_fill(self):
        h, fs = make_system()
        streams = {0: np.array([3])}
        streams.update({c: np.empty(0, dtype=np.int64) for c in (1, 2, 3)})
        simulate(streams, h, fs)
        for cache in h.path(0):
            assert cache.contains(3)

    def test_latency_accounting(self):
        h, fs = make_system()
        lm = LatencyModel(level_ms=(1.0, 1.0, 1.0))
        streams = {0: np.array([3, 3])}
        streams.update({c: np.empty(0, dtype=np.int64) for c in (1, 2, 3)})
        res = simulate(streams, h, fs, latency=lm)
        # First access: full walk (3ms) + disk; second: L1 hit (1ms).
        assert res.per_client_io_ms[0] > 4.0
        assert res.per_client_io_ms[1] == 0.0

    def test_compute_time(self):
        h, fs = make_system()
        lm = LatencyModel(compute_ms_per_iteration=2.0)
        streams = {c: np.empty(0, dtype=np.int64) for c in range(4)}
        res = simulate(streams, h, fs, latency=lm, iterations_per_client={0: 5})
        assert res.per_client_compute_ms[0] == 10.0
        assert res.execution_time_ms == 10.0

    def test_sync_stalls(self):
        h, fs = make_system()
        lm = LatencyModel(sync_stall_ms=3.0)
        streams = {c: np.empty(0, dtype=np.int64) for c in range(4)}
        res = simulate(streams, h, fs, latency=lm, sync_counts={2: 4})
        assert res.per_client_sync_ms[2] == 12.0
        assert res.io_latency_ms == 12.0

    def test_caches_reset_between_runs(self):
        h, fs = make_system()
        streams = {0: np.array([3])}
        streams.update({c: np.empty(0, dtype=np.int64) for c in (1, 2, 3)})
        simulate(streams, h, fs)
        res2 = simulate(streams, h, fs)
        # Same cold-start behaviour: still a miss.
        assert res2.level_stats["L1"].misses == 1

    def test_client_coverage_enforced(self):
        h, fs = make_system()
        with pytest.raises(ValueError):
            simulate({0: np.array([1])}, h, fs)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("option", ["sync_counts", "iterations_per_client"])
    @pytest.mark.parametrize("client", [-1, 4])
    def test_per_client_options_name_real_clients(self, engine, option, client):
        # -1 used to charge client k-1 silently, and k to raise IndexError.
        h, fs = make_system()
        streams = {c: np.empty(0, dtype=np.int64) for c in range(4)}
        with pytest.raises(ValueError, match=f"{option} names clients"):
            simulate(streams, h, fs, engine=engine, **{option: {client: 5}})

    def test_latency_level_count_enforced(self):
        h, fs = make_system()
        streams = {c: np.empty(0, dtype=np.int64) for c in range(4)}
        with pytest.raises(ValueError):
            simulate(streams, h, fs, latency=LatencyModel(level_ms=(1.0,)))

    def test_interference_visible_in_shared_cache(self):
        """Two clients with disjoint working sets thrash a shared L2."""
        h, fs = make_system(l1=1, l2=2, l3=64)
        a = np.tile(np.array([0, 1, 2]), 6)
        b = np.tile(np.array([10, 11, 12]), 6)
        none = np.empty(0, dtype=np.int64)
        conflict = simulate({0: a, 1: b, 2: none, 3: none}, h, fs)
        apart = simulate({0: a, 1: none, 2: b, 3: none}, h, fs)
        assert (
            apart.level_stats["L2"].hits >= conflict.level_stats["L2"].hits
        )
