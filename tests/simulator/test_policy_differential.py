"""Differential: the fast engine leaves every policy's internals as the reference does.

``test_engine_equivalence.py`` compares results and residency order.
This suite also compares what residency order cannot show: ARC's ghost
lists ``B1``/``B2``, its adaptation target ``p`` (value *and* type —
``min(capacity, …)`` can leave an ``int``) and last-touched chunk, and
RRIP's re-reference prediction values.  Hypothesis searches mixed
per-level policies over tiny capacities (every access near an
eviction), with and without prefetching and write-back, so both hot
loops of :mod:`repro.simulator.fast` run; some cases edit a cache's
capacity after construction, which leaves ARC's ghost sizing
(``policy.capacity``) apart from the eviction trigger (``cache.capacity``).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hierarchy.policies import ARCPolicy, RRIPPolicy
from repro.hierarchy.topology import three_level_hierarchy
from repro.simulator.engines import resolve_engine
from repro.simulator.serialization import _sim_to_dict
from repro.storage.filesystem import ParallelFileSystem

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
def cases(draw):
    policies = tuple(draw(st.sampled_from(VECTORIZED)) for _ in range(3))
    capacities = tuple(draw(st.integers(1, 8)) for _ in range(3))
    storage_nodes = draw(st.sampled_from([1, 2]))
    edit = draw(st.none() | st.tuples(st.integers(0, 2), st.integers(1, 8)))
    streams = {
        c: np.asarray(
            draw(st.lists(st.integers(0, NUM_CHUNKS - 1), max_size=48)),
            dtype=np.int64,
        )
        for c in range(NUM_CLIENTS)
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
    return policies, capacities, storage_nodes, edit, streams, masks, pf


class TestPolicyDifferential:
    @settings(max_examples=200, deadline=None)
    @given(cases())
    def test_fast_engine_leaves_every_policy_state_identical(self, case):
        assert run_engine(fast, case) == run_engine(reference, case)

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
