"""The storage cache hierarchy tree (paper §3-4.3).

The tree captures the hierarchy "from the storage nodes, through I/O
nodes, to the client nodes" (§4.3).  Leaves are the private compute-node
caches (L1), one per client; inner nodes are shared caches (L2 at I/O
nodes, L3 at storage nodes, deeper levels allowed).  If there are
multiple storage nodes a **dummy root** (a node with no cache) unifies
them, "signifying a hypothetical last level unified storage" (§4.3).

Two clients have *affinity at cache Li* iff Li lies on both clients'
root paths; :meth:`CacheHierarchy.affinity_depth` answers this and the
clustering algorithm consumes :meth:`CacheHierarchy.levels` top-down.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.hierarchy.cache import ChunkCache
from repro.util.validation import check_positive

__all__ = [
    "CacheNode",
    "CacheHierarchy",
    "three_level_hierarchy",
    "uniform_hierarchy",
]


class CacheNode:
    """One node of the storage cache hierarchy tree.

    ``cache is None`` only for the dummy root.  A leaf node is the
    private cache of exactly one client (``client_id`` set).
    """

    __slots__ = ("name", "level_name", "cache", "children", "parent", "client_id")

    def __init__(
        self,
        name: str,
        level_name: str,
        cache: ChunkCache | None,
        children: Sequence["CacheNode"] = (),
        client_id: int | None = None,
    ):
        self.name = name
        self.level_name = level_name
        self.cache = cache
        self.children = list(children)
        self.parent: CacheNode | None = None
        self.client_id = client_id
        for child in self.children:
            child.parent = self

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_dummy(self) -> bool:
        return self.cache is None

    @property
    def degree(self) -> int:
        return len(self.children)

    def walk(self) -> Iterator["CacheNode"]:
        """Pre-order traversal of the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        kind = "dummy" if self.is_dummy else self.level_name
        return f"CacheNode({self.name!r}, {kind}, degree={self.degree})"


class CacheHierarchy:
    """A validated storage cache hierarchy tree plus client lookup tables."""

    def __init__(self, root: CacheNode):
        self.root = root
        self._validate()
        # client id -> leaf node
        self._leaves: dict[int, CacheNode] = {
            n.client_id: n for n in root.walk() if n.is_leaf  # type: ignore[misc]
        }
        # client id -> caches on the path leaf..root (leaf first), dummy skipped
        self._paths: dict[int, list[ChunkCache]] = {}
        for cid, leaf in self._leaves.items():
            path = []
            node: CacheNode | None = leaf
            while node is not None:
                if node.cache is not None:
                    path.append(node.cache)
                node = node.parent
            self._paths[cid] = path

    def _validate(self) -> None:
        leaves = [n for n in self.root.walk() if n.is_leaf]
        if not leaves:
            raise ValueError("hierarchy has no client leaves")
        ids = sorted(n.client_id for n in leaves)  # type: ignore[arg-type]
        if any(i is None for i in ids):
            raise ValueError("every leaf must carry a client id")
        if ids != list(range(len(ids))):
            raise ValueError(f"client ids must be 0..k-1 contiguous, got {ids}")
        depths = {self._depth_of(n) for n in leaves}
        if len(depths) != 1:
            raise ValueError("all client leaves must sit at the same depth")
        seen: set[int] = set()
        for node in self.root.walk():
            if node.is_dummy and node is not self.root:
                raise ValueError("only the root may be a dummy (cache-less) node")
            if node.is_leaf and node.cache is None:
                raise ValueError("client leaves must have a cache")
            if node.cache is not None:
                if id(node.cache) in seen:
                    raise ValueError(f"cache {node.cache.name!r} sits at two nodes")
                seen.add(id(node.cache))

    def _depth_of(self, node: CacheNode) -> int:
        d = 0
        while node.parent is not None:
            node = node.parent
            d += 1
        return d

    # -- shape -------------------------------------------------------------------

    @property
    def num_clients(self) -> int:
        return len(self._leaves)

    @property
    def num_levels(self) -> int:
        """Number of *cache* levels on a client's root path (e.g. 3)."""
        return len(self._paths[0])

    def levels(self) -> list[list[CacheNode]]:
        """Nodes grouped by tree depth, root (depth 0) first."""
        by_depth: dict[int, list[CacheNode]] = {}
        for node in self.root.walk():
            by_depth.setdefault(self._depth_of(node), []).append(node)
        return [by_depth[d] for d in sorted(by_depth)]

    def level_names(self) -> list[str]:
        """Cache level names leaf-first on a client path, e.g. ['L1','L2','L3']."""
        names = []
        node: CacheNode | None = self._leaves[0]
        while node is not None:
            if node.cache is not None:
                names.append(node.level_name)
            node = node.parent
        return names

    def caches_at_level(self, level_name: str) -> list[ChunkCache]:
        return [
            n.cache
            for n in self.root.walk()
            if n.cache is not None and n.level_name == level_name
        ]

    # -- client queries ------------------------------------------------------------

    def leaf(self, client_id: int) -> CacheNode:
        try:
            return self._leaves[client_id]
        except KeyError:
            raise KeyError(f"unknown client {client_id}") from None

    def path(self, client_id: int) -> list[ChunkCache]:
        """Caches a client's accesses traverse, private (L1) first."""
        return self._paths[self.leaf(client_id).client_id]  # validates id

    def affinity_depth(self, client_a: int, client_b: int) -> int:
        """Leaf-relative level index of the nearest shared cache.

        0 would be the private cache (only if a == b), 1 means the
        clients share an L2, etc.  Two clients under different storage
        nodes of a dummy-rooted tree share nothing and get
        ``num_levels`` (one past the deepest cache).
        """
        if client_a == client_b:
            return 0
        a: CacheNode | None = self.leaf(client_a)
        ancestors_a = []
        while a is not None:
            ancestors_a.append(a)
            a = a.parent
        b: CacheNode | None = self.leaf(client_b)
        ancestors_b = set()
        while b is not None:
            ancestors_b.add(id(b))
            b = b.parent
        level = 0
        for node in ancestors_a:
            if node.cache is not None:
                if id(node) in ancestors_b:
                    return level
                level += 1
            elif id(node) in ancestors_b:
                return level  # met only at the dummy root: no shared cache
        raise AssertionError("clients share no ancestor — broken tree")

    def have_affinity(self, client_a: int, client_b: int) -> bool:
        """Paper's definition: do the clients share *some* storage cache?"""
        if client_a == client_b:
            return True
        return self.affinity_depth(client_a, client_b) < self.num_levels

    def reset(self) -> None:
        """Empty every cache and zero all statistics."""
        for node in self.root.walk():
            if node.cache is not None:
                node.cache.reset()

    def __repr__(self) -> str:
        fan = "x".join(str(len(lvl)) for lvl in self.levels())
        return f"CacheHierarchy(clients={self.num_clients}, shape={fan})"


def _per_level_policies(policy: str | Sequence[str], num_levels: int) -> list[str]:
    """Expand a policy argument into one name per cache level.

    A bare string applies uniformly; a sequence names each level and
    must match ``num_levels`` exactly.
    """
    if isinstance(policy, str):
        return [policy] * num_levels
    names = list(policy)
    if len(names) != num_levels:
        raise ValueError(
            f"need one policy per cache level: got {len(names)}, want {num_levels}"
        )
    return names


def three_level_hierarchy(
    num_clients: int,
    num_io_nodes: int,
    num_storage_nodes: int,
    capacities: tuple[int, int, int],
    policy: str | Sequence[str] = "lru",
) -> CacheHierarchy:
    """The paper's compute/I-O/storage topology (Fig. 1, Table 1).

    ``capacities`` are per-node (L1, L2, L3) capacities in chunks.
    ``policy`` is one name for every cache or a leaf-first (L1, L2, L3)
    triple — the scenario layer's per-level policy matrix.
    ``num_clients`` must divide evenly over the I/O nodes and those over
    the storage nodes (as in BG/P's fixed compute:I/O ratios).
    """
    w = check_positive("num_clients", num_clients)
    x = check_positive("num_io_nodes", num_io_nodes)
    y = check_positive("num_storage_nodes", num_storage_nodes)
    if w % x:
        raise ValueError(f"{w} clients do not divide over {x} I/O nodes")
    if x % y:
        raise ValueError(f"{x} I/O nodes do not divide over {y} storage nodes")
    c1, c2, c3 = capacities
    p1, p2, p3 = _per_level_policies(policy, 3)
    clients_per_io = w // x
    io_per_storage = x // y

    client_id = 0
    io_index = 0
    storage_nodes = []
    for s in range(y):
        io_children = []
        for _ in range(io_per_storage):
            leaf_children = []
            for _ in range(clients_per_io):
                leaf = CacheNode(
                    f"cn{client_id}",
                    "L1",
                    ChunkCache(c1, p1, name=f"L1[cn{client_id}]"),
                    client_id=client_id,
                )
                leaf_children.append(leaf)
                client_id += 1
            io_children.append(
                CacheNode(
                    f"io{io_index}",
                    "L2",
                    ChunkCache(c2, p2, name=f"L2[io{io_index}]"),
                    leaf_children,
                )
            )
            io_index += 1
        storage_nodes.append(
            CacheNode(f"sn{s}", "L3", ChunkCache(c3, p3, name=f"L3[sn{s}]"), io_children)
        )
    if len(storage_nodes) == 1:
        root = storage_nodes[0]
    else:
        root = CacheNode("root", "root", None, storage_nodes)
    return CacheHierarchy(root)


def uniform_hierarchy(
    fanouts: Sequence[int],
    capacities: Sequence[int],
    policy: str | Sequence[str] = "lru",
    level_names: Sequence[str] | None = None,
) -> CacheHierarchy:
    """A uniform tree of arbitrary depth.

    ``fanouts`` are top-down child counts: ``fanouts[0]`` top-level cache
    nodes under the (dummy, if >1) root, then per-node children.  The
    last fanout produces the client leaves.  ``capacities`` are per-node
    chunk capacities top-down — ``capacities[-1]`` is the private level.
    ``policy`` is one name for all levels or a top-down sequence
    aligned with ``capacities``.
    """
    if len(fanouts) != len(capacities):
        raise ValueError("need one capacity per level")
    if not fanouts:
        raise ValueError("need at least one level")
    depth = len(fanouts)
    policies = _per_level_policies(policy, depth)
    if level_names is None:
        level_names = [f"L{depth - d}" for d in range(depth)]
    counter = {"client": 0, "node": 0}

    def build(level: int) -> CacheNode:
        name = f"n{counter['node']}"
        counter["node"] += 1
        if level == depth - 1:
            cid = counter["client"]
            counter["client"] += 1
            return CacheNode(
                f"cn{cid}",
                level_names[level],
                ChunkCache(
                    capacities[level],
                    policies[level],
                    name=f"{level_names[level]}[cn{cid}]",
                ),
                client_id=cid,
            )
        children = [build(level + 1) for _ in range(fanouts[level + 1])]
        return CacheNode(
            name,
            level_names[level],
            ChunkCache(
                capacities[level],
                policies[level],
                name=f"{level_names[level]}[{name}]",
            ),
            children,
        )

    tops = [build(0) for _ in range(fanouts[0])]
    root = tops[0] if len(tops) == 1 else CacheNode("root", "root", None, tops)
    return CacheHierarchy(root)
