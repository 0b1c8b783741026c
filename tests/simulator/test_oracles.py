"""Oracles neither engine shares: exact LRU counts and Belady's MIN.

The differential suites prove the fast engine equal to the reference
engine; both encode one reading of the semantics.  These checks need
neither engine's replacement code.  Each cache's *input* is the
sequence of lookups that reach it: an access reaches every level down
to the one that hits, or all of them on a full miss.  It is read off
the reference recorder's :class:`~repro.trace.events.Access` events.
On that input:

* **LRU is a stack algorithm** (Mattson): an LRU cache misses exactly
  the accesses whose reuse distance is at least its capacity, first
  touches included.  This holds for every LRU cache whose residency
  moves only on its own lookups and demand fills: every cache, except
  the bottom one when read-ahead stages chunks into it.
* **Belady's MIN** misses least among demand-fill caches of one
  capacity.  Without prefetching every cache fills only on its own
  misses, so each cache's misses are at least MIN's, whatever its
  policy, with or without write-back (a dirty probe never moves
  residency).

Both run on the golden suite traces and on Hypothesis draws of trees
of one to four levels with policy mixes, write masks and read-ahead,
against the per-cache statistics of both engines.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.reuse import reuse_distance_profile
from repro.hierarchy.policies import LRUPolicy
from repro.hierarchy.topology import uniform_hierarchy
from repro.simulator.engine import LatencyModel
from repro.simulator.engines import resolve_engine
from repro.storage.filesystem import ParallelFileSystem
from repro.trace.events import Access
from repro.trace.recorder import MemoryRecorder
from repro.trace.replay import load_artifact, replay

from tests.simulator.golden import golden_path, golden_workloads

reference = resolve_engine("reference")
fast = resolve_engine("fast")

VECTORIZED = ["lru", "fifo", "arc", "rrip"]
NUM_CHUNKS = 32


def lru_misses(seq: list[int], capacity: int) -> int:
    """Misses of an LRU cache of ``capacity`` on ``seq``, by stack distance."""
    profile = reuse_distance_profile(np.asarray(seq, dtype=np.int64))
    return len(seq) - int(np.count_nonzero(profile.distances < capacity))


def min_misses(seq: list[int], capacity: int) -> int:
    """Misses of Belady's MIN on ``seq``: on a miss in a full cache,
    evict the resident chunk whose next use lies farthest ahead."""
    n = len(seq)
    next_use = [0] * n
    later: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        next_use[i] = later.get(seq[i], n)
        later[seq[i]] = i
    resident: dict[int, int] = {}  # chunk -> its next use
    heap: list[tuple[int, int]] = []  # (-next use, chunk), stale entries skipped
    misses = 0
    for i, chunk in enumerate(seq):
        if chunk not in resident:
            misses += 1
            while len(resident) >= capacity:
                neg, victim = heapq.heappop(heap)
                if resident.get(victim) == -neg:
                    del resident[victim]
        resident[chunk] = next_use[i]
        heapq.heappush(heap, (-next_use[i], chunk))
    return misses


def cache_inputs(hierarchy, events) -> list[tuple[object, list[int]]]:
    """Every cache with the chunks of the lookups that reach it, in
    step order: an access reaches the levels down to its hit level, or
    all of them on a full miss."""
    paths = [hierarchy.path(c) for c in range(hierarchy.num_clients)]
    inputs: dict[int, list[int]] = {}
    for ev in events:
        if isinstance(ev, Access):
            path = paths[ev.client]
            reach = len(path) if ev.hit_level < 0 else ev.hit_level + 1
            for cache in path[:reach]:
                inputs.setdefault(id(cache), []).append(ev.chunk)
    return [
        (cache, inputs.get(id(cache), []))
        for name in hierarchy.level_names()
        for cache in hierarchy.caches_at_level(name)
    ]


def check_oracles(run, prefetch_degree: int) -> int:
    """Run ``run(engine, recorder)`` on the reference engine with a
    recorder and on both engines without; each engine's per-cache
    misses must meet both oracles on the recorded inputs.  Returns the
    number of (cache, oracle) checks made."""
    rec = MemoryRecorder()
    h = run(reference, rec)
    inputs = cache_inputs(h, rec.events)
    bottom = set(map(id, h.caches_at_level(h.level_names()[-1])))
    checked = 0
    for engine in (reference, fast):
        h = run(engine, None)
        for (traced, seq), cache in zip(inputs, (
            c for name in h.level_names() for c in h.caches_at_level(name)
        )):
            assert cache.name == traced.name
            assert cache.stats.accesses == len(seq), cache.name
            misses = cache.stats.misses
            if type(cache.policy) is LRUPolicy and not (
                prefetch_degree and id(traced) in bottom
            ):
                assert misses == lru_misses(seq, cache.capacity), cache.name
                checked += 1
            if not prefetch_degree:
                assert misses >= min_misses(seq, cache.capacity), cache.name
                checked += 1
    return checked


class TestOracleFunctions:
    def test_lru_count_matches_a_direct_simulation(self):
        rng = np.random.default_rng(3)
        seq = rng.integers(0, 12, size=300).tolist()
        for cap in (1, 2, 5, 12):
            order: dict[int, None] = {}
            misses = 0
            for chunk in seq:
                if chunk in order:
                    del order[chunk]
                else:
                    misses += 1
                    if len(order) >= cap:
                        del order[next(iter(order))]
                order[chunk] = None
            assert lru_misses(seq, cap) == misses

    def test_min_on_known_sequences(self):
        # Capacity 2 on a, b, c, a, b: MIN keeps a (used next) over b
        # when c arrives, then misses b once more.
        assert min_misses([0, 1, 2, 0, 1], 2) == 4
        assert min_misses([0, 1, 0, 1], 1) == 4
        assert min_misses([0, 1, 0, 1], 2) == 2
        assert min_misses([], 3) == 0

    def test_min_never_exceeds_lru(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            seq = rng.integers(0, 10, size=80).tolist()
            cap = int(rng.integers(1, 8))
            assert min_misses(seq, cap) <= lru_misses(seq, cap)


@pytest.mark.parametrize("workload", golden_workloads())
@pytest.mark.parametrize("prefetch_degree", [None, 0])
def test_golden_traces_meet_both_oracles(workload, prefetch_degree):
    """The recorded golden configuration (write-back, read-ahead 2), and
    the same traces without read-ahead, where MIN bounds every cache."""
    artifact = load_artifact(golden_path(workload))
    pf = artifact.prefetch_degree if prefetch_degree is None else prefetch_degree

    def run(engine, recorder):
        h, fs = artifact.config.build_hierarchy(), artifact.config.build_filesystem()
        replay(
            artifact, hierarchy=h, filesystem=fs, prefetch_degree=pf,
            recorder=recorder, engine="fast" if engine is fast else "reference",
        )
        return h

    assert check_oracles(run, pf) > 0


@st.composite
def tree_cases(draw):
    """A uniform tree of one to four levels (fanouts of one or two), one
    policy per level, tiny capacities, optional write masks, read-ahead
    0–3 on one or two disks."""
    depth = draw(st.integers(1, 4))
    fanouts = [draw(st.integers(1, 2)) for _ in range(depth)]
    policies = [draw(st.sampled_from(VECTORIZED)) for _ in range(depth)]
    capacities = [draw(st.integers(1, 8)) for _ in range(depth)]
    clients = int(np.prod(fanouts))
    top = draw(st.sampled_from([7, 15, NUM_CHUNKS - 1]))
    streams = {
        c: np.asarray(draw(st.lists(st.integers(0, top), max_size=40)), dtype=np.int64)
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
    nodes = draw(st.sampled_from([1, 2]))
    return fanouts, capacities, policies, streams, masks, pf, nodes


@settings(max_examples=150, deadline=None)
@given(tree_cases())
def test_drawn_trees_meet_both_oracles(case):
    fanouts, capacities, policies, streams, masks, pf, nodes = case
    latency = LatencyModel(level_ms=tuple(0.01 * 3**l for l in range(len(fanouts))))

    def run(engine, recorder):
        h = uniform_hierarchy(fanouts, capacities, policies)
        fs = ParallelFileSystem(nodes, chunk_bytes=64 * 1024)
        engine(
            streams, h, fs, latency=latency, write_masks=masks,
            prefetch_degree=pf, num_data_chunks=NUM_CHUNKS, recorder=recorder,
        )
        return h

    check_oracles(run, pf)
