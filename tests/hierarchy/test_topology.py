"""Tests for the storage cache hierarchy tree."""

import pytest

from repro.hierarchy.cache import ChunkCache
from repro.hierarchy.topology import (
    CacheHierarchy,
    CacheNode,
    three_level_hierarchy,
    uniform_hierarchy,
)


@pytest.fixture
def paper_fig1():
    """Fig. 1: 8 clients, 4 I/O nodes, 2 storage nodes."""
    return three_level_hierarchy(8, 4, 2, (4, 8, 16))


@pytest.fixture
def paper_fig7():
    """Fig. 7: 4 clients, 2 I/O nodes, 1 storage node."""
    return three_level_hierarchy(4, 2, 1, (4, 8, 16))


class TestThreeLevelBuilder:
    def test_fig1_shape(self, paper_fig1):
        assert paper_fig1.num_clients == 8
        assert paper_fig1.num_levels == 3
        assert paper_fig1.level_names() == ["L1", "L2", "L3"]
        # Dummy root unifies the two storage nodes.
        assert paper_fig1.root.is_dummy

    def test_fig7_single_storage_is_root(self, paper_fig7):
        assert not paper_fig7.root.is_dummy
        assert paper_fig7.root.level_name == "L3"

    def test_caches_at_level_counts(self, paper_fig1):
        assert len(paper_fig1.caches_at_level("L1")) == 8
        assert len(paper_fig1.caches_at_level("L2")) == 4
        assert len(paper_fig1.caches_at_level("L3")) == 2

    def test_capacities_assigned(self, paper_fig1):
        assert paper_fig1.caches_at_level("L1")[0].capacity == 4
        assert paper_fig1.caches_at_level("L3")[0].capacity == 16

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            three_level_hierarchy(10, 4, 2, (1, 1, 1))
        with pytest.raises(ValueError):
            three_level_hierarchy(8, 3, 2, (1, 1, 1))

    def test_table1_default_topology(self):
        h = three_level_hierarchy(64, 32, 16, (8, 8, 8))
        assert h.num_clients == 64
        assert len(h.caches_at_level("L2")) == 32
        assert len(h.caches_at_level("L3")) == 16


class TestPaths:
    def test_path_private_first(self, paper_fig1):
        path = paper_fig1.path(0)
        assert [c.name for c in path] == ["L1[cn0]", "L2[io0]", "L3[sn0]"]

    def test_paths_share_suffix(self, paper_fig1):
        assert paper_fig1.path(0)[1] is paper_fig1.path(1)[1]
        assert paper_fig1.path(0)[2] is paper_fig1.path(2)[2]
        assert paper_fig1.path(0)[2] is not paper_fig1.path(4)[2]

    def test_unknown_client(self, paper_fig1):
        with pytest.raises(KeyError):
            paper_fig1.path(99)


class TestAffinity:
    def test_paper_sharing_degrees(self, paper_fig1):
        """Fig. 1: L1 private, L2 shared by 2, L3 shared by 4."""
        assert paper_fig1.affinity_depth(0, 1) == 1  # share L2
        assert paper_fig1.affinity_depth(0, 2) == 2  # share L3
        assert paper_fig1.affinity_depth(0, 3) == 2
        assert paper_fig1.affinity_depth(0, 4) == 3  # nothing shared

    def test_have_affinity(self, paper_fig1):
        assert paper_fig1.have_affinity(0, 3)
        assert not paper_fig1.have_affinity(0, 7)
        assert paper_fig1.have_affinity(2, 2)

    def test_self_affinity_zero(self, paper_fig1):
        assert paper_fig1.affinity_depth(5, 5) == 0

    def test_single_storage_everyone_shares(self, paper_fig7):
        assert paper_fig7.have_affinity(0, 3)
        assert paper_fig7.affinity_depth(0, 3) == 2


class TestValidation:
    def test_client_ids_must_be_contiguous(self):
        leaf = CacheNode("cn5", "L1", ChunkCache(1), client_id=5)
        root = CacheNode("sn", "L2", ChunkCache(1), [leaf])
        with pytest.raises(ValueError, match="contiguous"):
            CacheHierarchy(root)

    def test_leaves_need_cache(self):
        leaf = CacheNode("cn0", "L1", None, client_id=0)
        root = CacheNode("sn", "L2", ChunkCache(1), [leaf])
        with pytest.raises(ValueError):
            CacheHierarchy(root)

    def test_inner_dummy_rejected(self):
        leaf = CacheNode("cn0", "L1", ChunkCache(1), client_id=0)
        mid = CacheNode("mid", "L2", None, [leaf])
        root = CacheNode("sn", "L3", ChunkCache(1), [mid])
        with pytest.raises(ValueError, match="dummy"):
            CacheHierarchy(root)

    def test_uneven_leaf_depths_rejected(self):
        shallow = CacheNode("cn0", "L1", ChunkCache(1), client_id=0)
        deep_leaf = CacheNode("cn1", "L1", ChunkCache(1), client_id=1)
        deep_mid = CacheNode("io", "L2", ChunkCache(1), [deep_leaf])
        root = CacheNode("sn", "L3", ChunkCache(1), [shallow, deep_mid])
        with pytest.raises(ValueError, match="depth"):
            CacheHierarchy(root)

    def test_cache_at_two_nodes_rejected(self):
        """Every cache sits at one node, so the hierarchy is a tree of caches."""
        shared = ChunkCache(1)
        leaves = [CacheNode(f"cn{c}", "L1", shared, client_id=c) for c in range(2)]
        root = CacheNode("sn", "L2", ChunkCache(4), leaves)
        with pytest.raises(ValueError, match="two nodes"):
            CacheHierarchy(root)


class TestUniformHierarchy:
    def test_two_level(self):
        h = uniform_hierarchy([2, 3], [16, 4])
        assert h.num_clients == 6
        assert h.num_levels == 2
        assert len(h.caches_at_level("L2")) == 2

    def test_four_level(self):
        h = uniform_hierarchy([2, 2, 2, 2], [64, 32, 16, 8])
        assert h.num_clients == 16
        assert h.num_levels == 4
        assert h.affinity_depth(0, 1) == 1
        assert h.affinity_depth(0, 15) == 4  # only via dummy root: none

    def test_single_top_node_is_root(self):
        h = uniform_hierarchy([1, 4], [16, 4])
        assert not h.root.is_dummy
        assert h.num_clients == 4

    def test_capacity_count_checked(self):
        with pytest.raises(ValueError):
            uniform_hierarchy([2, 2], [16])


class TestReset:
    def test_reset_clears_all_caches(self, paper_fig1):
        for c in range(8):
            path = paper_fig1.path(c)
            for cache in path:
                cache.lookup(1)
                cache.fill(1)
        paper_fig1.reset()
        for name in ("L1", "L2", "L3"):
            for cache in paper_fig1.caches_at_level(name):
                assert cache.occupancy == 0
                assert cache.stats.accesses == 0


class TestCacheNode:
    def test_walk_preorder(self, paper_fig7):
        names = [n.name for n in paper_fig7.root.walk()]
        assert names[0] == "sn0"
        assert set(names) >= {"io0", "io1", "cn0", "cn3"}
