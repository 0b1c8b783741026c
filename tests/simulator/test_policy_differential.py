"""Differential: the fast engine leaves every policy's internals as the reference does.

``test_engine_equivalence.py`` compares results and residency order.
This suite also compares what residency order cannot show: ARC's ghost
lists ``B1``/``B2``, its adaptation target ``p`` (value *and* type —
``min(capacity, …)`` can leave an ``int``) and last-touched chunk, and
RRIP's re-reference prediction values.  Hypothesis searches mixed
per-level policies over tiny capacities (every access near an
eviction), with and without prefetching and write-back, on the paper's
three levels and on trees of one to four levels, all through the fast
engine's one level-by-level pass.  Read-only runs without prefetching
are drawn on their own as well, with small working sets.  Some cases
edit a cache's capacity after construction, which leaves ARC's ghost
sizing (``policy.capacity``) apart from the eviction trigger
(``cache.capacity``).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hierarchy.policies import ARCPolicy, RRIPPolicy
from repro.hierarchy.topology import three_level_hierarchy, uniform_hierarchy
from repro.simulator.engine import LatencyModel
from repro.simulator.engines import resolve_engine
from repro.simulator.serialization import _sim_to_dict
from repro.storage.filesystem import ParallelFileSystem
from repro.trace.events import Access, Evict, Fill, Prefetch, Writeback
from repro.trace.recorder import MemoryRecorder

from tests.simulator.golden import machine_digest

reference = resolve_engine("reference")
fast = resolve_engine("fast")

VECTORIZED = ["lru", "fifo", "arc", "rrip"]
NUM_CLIENTS = 4
NUM_CHUNKS = 32


def policy_state(hierarchy) -> list[dict]:
    """Every cache's policy internals, in level order.

    ARC: ``T1``/``T2``/``B1``/``B2`` in order, ``p`` with its type, the
    last-touched chunk.  RRIP: ``(chunk, rrpv)`` items in order.
    LRU/FIFO: the residency order.
    """
    out = []
    for name in hierarchy.level_names():
        for cache in hierarchy.caches_at_level(name):
            pol = cache.policy
            if isinstance(pol, ARCPolicy):
                out.append(
                    {
                        "t1": list(pol._t1),
                        "t2": list(pol._t2),
                        "b1": list(pol._b1),
                        "b2": list(pol._b2),
                        "p": (type(pol._p).__name__, pol._p),
                        "last_touched": pol._last_touched,
                    }
                )
            elif isinstance(pol, RRIPPolicy):
                out.append({"rrpv": list(pol._rrpv.items())})
            else:
                out.append({"order": pol.resident()})
    return out


def run_engine(engine, case):
    """One engine on a fresh machine: (result, machine digest, internals)."""
    policies, capacities, storage_nodes, edit, streams, masks, pf = case
    h = three_level_hierarchy(NUM_CLIENTS, 2, storage_nodes, capacities, policies)
    if edit is not None:
        level, capacity = edit
        h.caches_at_level(h.level_names()[level])[0].capacity = capacity
    fs = ParallelFileSystem(storage_nodes, chunk_bytes=64 * 1024)
    sim = engine(
        streams, h, fs,
        write_masks=masks,
        prefetch_degree=pf,
        num_data_chunks=NUM_CHUNKS,
    )
    return _sim_to_dict(sim), machine_digest(h, fs), policy_state(h)


@st.composite
def cases(draw, tree=False):
    """A machine, an optional capacity edit and streams; with ``tree``,
    read-only and without prefetching."""
    policies = tuple(draw(st.sampled_from(VECTORIZED)) for _ in range(3))
    capacities = tuple(draw(st.integers(1, 8)) for _ in range(3))
    storage_nodes = draw(st.sampled_from([1, 2]))
    edit = draw(st.none() | st.tuples(st.integers(0, 2), st.integers(1, 8)))
    # The tree variant also draws small working sets and longer streams:
    # reuse is what fills ARC's ghost lists and drives ``p`` to its bounds.
    top = draw(st.sampled_from([3, 7, 15, NUM_CHUNKS - 1])) if tree else NUM_CHUNKS - 1
    streams = {
        c: np.asarray(
            draw(st.lists(st.integers(0, top), max_size=64 if tree else 48)),
            dtype=np.int64,
        )
        for c in range(NUM_CLIENTS)
    }
    masks = None
    if not tree and draw(st.booleans()):
        masks = {
            c: np.asarray(
                draw(st.lists(st.booleans(), min_size=len(s), max_size=len(s))),
                dtype=bool,
            )
            for c, s in streams.items()
        }
    pf = 0 if tree else draw(st.integers(0, 3))
    return policies, capacities, storage_nodes, edit, streams, masks, pf


@st.composite
def deep_cases(draw):
    """A uniform tree of one to four levels (top-down fanouts of one or
    two, so at most 16 clients), with optional write masks and
    read-ahead 0–3."""
    depth = draw(st.integers(1, 4))
    fanouts = [draw(st.integers(1, 2)) for _ in range(depth)]
    policies = [draw(st.sampled_from(VECTORIZED)) for _ in range(depth)]
    capacities = [draw(st.integers(1, 8)) for _ in range(depth)]
    clients = int(np.prod(fanouts))
    top = draw(st.sampled_from([7, 15, NUM_CHUNKS - 1]))
    streams = {
        c: np.asarray(
            draw(st.lists(st.integers(0, top), max_size=40)),
            dtype=np.int64,
        )
        for c in range(clients)
    }
    masks = None
    if draw(st.booleans()):
        masks = {
            c: np.asarray(
                draw(st.lists(st.booleans(), min_size=len(s), max_size=len(s))),
                dtype=bool,
            )
            for c, s in streams.items()
        }
    pf = draw(st.integers(0, 3))
    return (
        fanouts, capacities, policies, draw(st.sampled_from([1, 2])), streams,
        masks, pf,
    )


def run_deep(engine, case, recorder=None):
    fanouts, capacities, policies, storage_nodes, streams, masks, pf = case
    h = uniform_hierarchy(fanouts, capacities, policies)
    fs = ParallelFileSystem(storage_nodes, chunk_bytes=64 * 1024)
    latency = LatencyModel(level_ms=tuple(0.01 * 3**l for l in range(len(fanouts))))
    sim = engine(
        streams, h, fs, latency=latency, write_masks=masks, prefetch_degree=pf,
        num_data_chunks=NUM_CHUNKS, recorder=recorder,
    )
    return _sim_to_dict(sim), machine_digest(h, fs), policy_state(h)


class _ProbeARC(ARCPolicy):
    """ARC that notes the subtle rules it runs into (reference runs only:
    the fast engine sends a subclass to the reference path)."""

    def __init__(self, capacity, seen):
        super().__init__(capacity)
        self.seen = seen

    def insert(self, chunk_id):
        if chunk_id in self._b1:
            self.seen.add("b1 ghost hit")
            if self._p + max(1.0, len(self._b2) / len(self._b1)) >= self.capacity:
                self.seen.add("p clamped at capacity")
        elif chunk_id in self._b2:
            self.seen.add("b2 ghost hit")
            if self._p - max(1.0, len(self._b1) / len(self._b2)) <= 0.0:
                self.seen.add("p clamped at 0.0")
        super().insert(chunk_id)


class _ProbeRRIP(RRIPPolicy):
    def __init__(self, seen):
        super().__init__()
        self.seen = seen

    def evict(self):
        if max(self._rrpv.values()) < self._max:
            self.seen.add("rrip re-aging")
        return super().evict()


def reached_rules(case) -> set[str]:
    """The subtle rules a reference run of a read-only ``case`` exercises."""
    policies, capacities, storage_nodes, edit, streams, _, _ = case
    seen: set[str] = set()
    h = three_level_hierarchy(NUM_CLIENTS, 2, storage_nodes, capacities, policies)
    for name in h.level_names():
        for cache in h.caches_at_level(name):
            if isinstance(cache.policy, ARCPolicy):
                cache.policy = _ProbeARC(cache.policy.capacity, seen)
            elif isinstance(cache.policy, RRIPPolicy):
                cache.policy = _ProbeRRIP(seen)
    if edit is not None:
        level, capacity = edit
        h.caches_at_level(h.level_names()[level])[0].capacity = capacity
        seen.add("capacity edit")
    if any(len(s) == 0 for s in streams.values()):
        seen.add("empty client stream")
    fs = ParallelFileSystem(storage_nodes, chunk_bytes=64 * 1024)
    reference(streams, h, fs, num_data_chunks=NUM_CHUNKS)
    if any(
        cache.stats.accesses == 0
        for name in h.level_names()[1:]
        for cache in h.caches_at_level(name)
    ):
        seen.add("lower cache no access reaches")
    return seen


def reached_writeback_rules(case) -> set[str]:
    """The write-back and read-ahead rules a reference run of a deep
    ``case`` exercises, read off its trace.

    Replaying the fills, read-ahead stagings and evictions in event
    order gives every cache's residency at each dirty eviction, so the
    level that absorbs its probe (or none: a disk write) follows; the
    full misses, stagings and write-backs are the disks' operations in
    order.
    """
    fanouts, capacities, policies, storage_nodes, _, _, _ = case
    rec = MemoryRecorder()
    run_deep(reference, case, recorder=rec)
    h = uniform_hierarchy(fanouts, capacities, policies)
    paths = [[cache.name for cache in h.path(c)] for c in range(h.num_clients)]
    bottom = len(fanouts) - 1
    resident: dict[str, set[int]] = {name: set() for path in paths for name in path}
    last_op: dict[int, tuple[int, str]] = {}
    seen: set[str] = set()

    def disk_op(chunk, op):
        node, block = chunk % storage_nodes, chunk // storage_nodes
        prev = last_op.get(node)
        if prev is not None and block == prev[0] + 1 and prev[1] != op:
            seen.add("write-back and read sequential on one disk")
        last_op[node] = (block, op)

    prev = None
    for ev in rec.events:
        if isinstance(ev, Access):
            if ev.hit_level < 0:
                disk_op(ev.chunk, "read")
            elif ev.cold:
                seen.add("cold access hits a read-ahead chunk")
        elif isinstance(ev, Prefetch):
            resident[ev.cache].add(ev.chunk)
            disk_op(ev.chunk, "read")
        elif isinstance(ev, Fill):
            resident[ev.cache].add(ev.chunk)
        elif isinstance(ev, Writeback):
            disk_op(ev.chunk, "write")
        elif isinstance(ev, Evict):
            resident[ev.cache].discard(ev.victim)
            if ev.dirty and isinstance(prev, Prefetch):
                seen.add("read-ahead fill's eviction writes back")
            below = [
                l for l, name in enumerate(paths[ev.client])
                if l > ev.level and ev.victim in resident[name]
            ]
            if ev.dirty and below and below[0] < bottom:
                seen.add("dirty probe absorbed at a middle level")
            elif ev.dirty and not below and ev.level == 0 and bottom >= 2:
                seen.add("probe falls through every level to disk")
        prev = ev
    return seen


class TestPolicyDifferential:
    @settings(max_examples=200, deadline=None)
    @given(cases())
    def test_fast_engine_leaves_every_policy_state_identical(self, case):
        assert run_engine(fast, case) == run_engine(reference, case)

    @settings(max_examples=250, deadline=None)
    @given(cases(tree=True))
    def test_tree_pass_leaves_every_policy_state_identical(self, case):
        """Read-only runs without prefetching, with small working sets."""
        assert run_engine(fast, case) == run_engine(reference, case)

    @settings(max_examples=250, deadline=None)
    @given(deep_cases())
    def test_tree_pass_on_any_depth_matches_the_reference(self, case):
        """Trees of one to four levels, with write masks and read-ahead."""
        assert run_deep(fast, case) == run_deep(reference, case)

    def test_tree_cases_reach_the_subtle_rules(self):
        """The read-only variant's search space includes every policy rule
        a level-by-level pass could get wrong: its first 250 derandomized
        draws (as many as its differential takes) reach them all."""
        seen: set[str] = set()

        @settings(max_examples=250, deadline=None, derandomize=True, database=None)
        @given(cases(tree=True))
        def probe(case):
            seen.update(reached_rules(case))

        probe()
        assert seen >= {
            "b1 ghost hit",
            "b2 ghost hit",
            "p clamped at capacity",
            "p clamped at 0.0",
            "rrip re-aging",
            "capacity edit",
            "empty client stream",
            "lower cache no access reaches",
        }

    def test_deep_cases_reach_the_write_back_rules(self):
        """The deep variant's first 250 derandomized draws (as many as its
        differential takes) reach every rule that ordering dirty probes,
        read-ahead and disk operations within a step could get wrong."""
        seen: set[str] = set()

        @settings(max_examples=250, deadline=None, derandomize=True, database=None)
        @given(deep_cases())
        def probe(case):
            seen.update(reached_writeback_rules(case))

        probe()
        assert seen == {
            "dirty probe absorbed at a middle level",
            "probe falls through every level to disk",
            "read-ahead fill's eviction writes back",
            "cold access hits a read-ahead chunk",
            "write-back and read sequential on one disk",
        }

    def test_capacity_edit_splits_arc_ghost_sizing_from_the_trigger(self):
        """A cache resized after construction evicts at a size its ARC's
        ghost lists are not sized for; both engines must agree on the trim."""
        rng = np.random.default_rng(5)
        streams = {
            c: rng.integers(0, NUM_CHUNKS, size=200) for c in range(NUM_CLIENTS)
        }
        for edit in ((1, 8), (1, 1), (2, 2)):
            case = (("arc", "arc", "arc"), (2, 3, 4), 1, edit, streams, None, 0)
            ref = run_engine(reference, case)
            assert run_engine(fast, case) == ref

    def test_search_space_reaches_the_subtle_rules(self):
        """A fixed heavy case drives the rules a mutation would break:
        ARC ghost hits move ``p`` off zero, and RRIP ages its RRPVs."""
        rng = np.random.default_rng(11)
        streams = {
            c: rng.integers(0, NUM_CHUNKS, size=300) for c in range(NUM_CLIENTS)
        }
        writes = {c: s % 3 == 0 for c, s in streams.items()}
        for masks, pf in ((None, 0), (writes, 2)):
            case = (("rrip", "arc", "arc"), (3, 5, 7), 2, None, streams, masks, pf)
            ref = run_engine(reference, case)
            assert run_engine(fast, case) == ref
            states = ref[2]
            arc_p = [s["p"][1] for s in states if "p" in s]
            assert any(p != 0 for p in arc_p)
            rrpvs = [v for s in states if "rrpv" in s for _, v in s["rrpv"]]
            # Insert sets 2 and a hit 0; only aging yields 1 or 3.
            assert {1, 3} & set(rrpvs)
