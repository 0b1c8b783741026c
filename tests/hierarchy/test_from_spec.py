"""Hierarchies built node by node: uneven trees, dummy roots, validation."""

import pytest

from repro.hierarchy.cache import ChunkCache
from repro.hierarchy.topology import CacheHierarchy, CacheNode


def node(capacity, *children, level=None):
    """One cache node; a node without children is a client leaf."""
    name = level or f"L{capacity}"
    return CacheNode(name, name, ChunkCache(capacity, name=name), children)


def leaf(capacity=8):
    return node(capacity, level="L1")


def tree(*tops):
    """Number the leaves left to right; several tops get a dummy root."""
    root = tops[0] if len(tops) == 1 else CacheNode("root", "root", None, tops)
    for cid, n in enumerate(n for n in root.walk() if n.is_leaf):
        n.client_id = cid
    return CacheHierarchy(root)


class TestHierarchyFromSpec:
    def test_single_root(self):
        h = tree(node(64, leaf(), leaf(), leaf()))
        assert h.num_clients == 3
        assert h.num_levels == 2
        assert not h.root.is_dummy

    def test_multiple_roots_get_dummy(self):
        h = tree(node(64, leaf(), leaf()), node(64, leaf(), leaf()))
        assert h.root.is_dummy
        assert h.num_clients == 4
        assert not h.have_affinity(0, 2)

    def test_heterogeneous_fanouts(self):
        """Different subtree shapes, same leaf depth — allowed."""
        h = tree(
            node(64, node(32, leaf(), leaf())),
            node(64, node(32, leaf()), node(32, leaf())),
        )
        assert h.num_clients == 4
        # Clients 0,1 share an L2; clients 2,3 only share their L3.
        assert h.affinity_depth(0, 1) == 1
        assert h.affinity_depth(2, 3) == 2

    def test_custom_level_names(self):
        h = tree(node(64, node(8, level="client"), level="server"))
        assert h.level_names() == ["client", "server"]

    def test_capacities_applied(self):
        h = tree(node(10, leaf(3)))
        assert h.path(0)[0].capacity == 3
        assert h.path(0)[1].capacity == 10

    def test_unequal_depths_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            tree(node(64, leaf(), node(32, leaf())))

    def test_unequal_root_depths_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            tree(leaf(), node(32, leaf()))

    def test_missing_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            tree(node(0, leaf()))

    def test_empty_roots_rejected(self):
        """A dummy root over no storage nodes is a leaf without a cache."""
        with pytest.raises(ValueError, match="cache"):
            tree(CacheNode("root", "root", None))

    def test_mapping_on_heterogeneous_tree(self):
        """The clustering recursion handles per-node degrees."""
        from repro.core.mapper import InterProcessorMapper
        from repro.workloads.paper_example import figure6_workload

        h = tree(
            node(16, node(8, leaf(4), leaf(4))),
            node(16, node(8, leaf(4)), node(8, leaf(4))),
        )
        nest, ds = figure6_workload(d=16)
        mapping = InterProcessorMapper().map(nest, ds, h)
        mapping.validate(nest.num_iterations)
