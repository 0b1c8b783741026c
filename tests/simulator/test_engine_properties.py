"""Property-based tests for the simulation engine's invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hierarchy.topology import three_level_hierarchy
from repro.simulator.engine import simulate
from repro.storage.filesystem import ParallelFileSystem


def run_sim(per_client_traces, l1=2, l2=4, l3=8, **kw):
    k = 4
    h = three_level_hierarchy(k, 2, 1, (l1, l2, l3))
    fs = ParallelFileSystem(1, chunk_bytes=64 * 1024)
    streams = {c: np.empty(0, dtype=np.int64) for c in range(k)}
    for c, trace in enumerate(per_client_traces[:k]):
        streams[c] = np.asarray(trace, dtype=np.int64)
    return simulate(streams, h, fs, **kw), h, streams


traces = st.lists(
    st.lists(st.integers(0, 12), max_size=30),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(traces)
def test_accounting_invariants(per_client):
    res, h, streams = run_sim(per_client)
    total = sum(len(s) for s in streams.values())
    l1 = res.level_stats["L1"]
    # Every request probes L1 exactly once.
    assert l1.accesses == total
    assert l1.hits + l1.misses == total
    # Each level's accesses equal the previous level's misses.
    assert res.level_stats["L2"].accesses == l1.misses
    assert res.level_stats["L3"].accesses == res.level_stats["L2"].misses
    # Disk reads equal L3 misses.
    assert res.disk_reads == res.level_stats["L3"].misses


@settings(max_examples=40, deadline=None)
@given(traces)
def test_no_phantom_chunks(per_client):
    """Every resident chunk was actually requested by some client.

    (Strict multi-level inclusion is *not* an invariant of fill-inclusive
    hierarchies: a sibling's fills can push a chunk out of a shared L2
    while the owner's L1 keeps refreshing it via hits — by design.)
    """
    res, h, streams = run_sim(per_client)
    requested = set()
    for s in streams.values():
        requested.update(s.tolist())
    for name in ("L1", "L2", "L3"):
        for cache in h.caches_at_level(name):
            assert set(cache.resident_chunks()) <= requested


@settings(max_examples=30, deadline=None)
@given(traces)
def test_io_time_nonnegative_and_monotone_in_requests(per_client):
    res, _, streams = run_sim(per_client)
    assert (res.per_client_io_ms >= 0).all()
    for c in range(4):
        if len(streams[c]) == 0:
            assert res.per_client_io_ms[c] == 0.0
        else:
            assert res.per_client_io_ms[c] > 0.0


@settings(max_examples=25, deadline=None)
@given(traces, st.integers(0, 3))
def test_prefetch_touches_only_the_bottom_level(per_client, degree):
    """Read-ahead stages into L3 only: L1/L2 behaviour is identical.

    (It can still *hurt* end-to-end via L3 pollution — the literature's
    classic prefetching caveat — so no latency monotonicity is claimed.)
    """
    plain, _, _ = run_sim(per_client)
    fetched, _, _ = run_sim(per_client, prefetch_degree=degree)
    for level in ("L1", "L2"):
        assert (
            fetched.level_stats[level].hits == plain.level_stats[level].hits
        )
        assert (
            fetched.level_stats[level].misses
            == plain.level_stats[level].misses
        )
    assert fetched.disk_busy_ms >= plain.disk_busy_ms - 1e-9


@settings(max_examples=25, deadline=None)
@given(traces)
def test_writeback_only_adds_latency(per_client):
    plain, _, streams = run_sim(per_client)
    masks = {c: np.ones(len(s), dtype=bool) for c, s in streams.items()}
    dirty, _, _ = run_sim(per_client, write_masks=masks)
    assert (dirty.per_client_io_ms >= plain.per_client_io_ms - 1e-9).all()
    # Hit/miss behaviour is unchanged by write-back accounting.
    assert dirty.level_stats["L1"].misses == plain.level_stats["L1"].misses


@settings(max_examples=30, deadline=None)
@given(traces)
def test_cold_miss_classification(per_client):
    """Cold misses at L3 == distinct chunks requested (first touches
    always walk to the bottom on a cold hierarchy)."""
    res, h, streams = run_sim(per_client)
    distinct = len(set(np.concatenate(
        [s for s in streams.values() if len(s)] or [np.empty(0, np.int64)]
    ).tolist()))
    l3 = res.level_stats["L3"]
    assert l3.cold_misses == distinct
    assert l3.capacity_misses == l3.misses - distinct
    # Cold misses can never exceed misses at any level.
    for name in ("L1", "L2", "L3"):
        st_ = res.level_stats[name]
        assert 0 <= st_.cold_misses <= st_.misses


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 20), max_size=8))
def test_interleave_order_is_round_grouped_permutation(lengths):
    """The global order is a permutation of all (client, position)
    pairs, grouped by round: positions never decrease, and within one
    round clients are served in ascending id order."""
    from repro.simulator.engine import interleave_order

    clients, pos = interleave_order(lengths)
    served = list(zip(clients.tolist(), pos.tolist()))
    # Permutation: every access of every client exactly once.
    assert sorted(served) == sorted(
        (c, p) for c, n in enumerate(lengths) for p in range(n)
    )
    # Grouped by round (a client's p-th access happens in round p).
    rounds = pos.tolist()
    assert rounds == sorted(rounds)
    # Within a round, ascending client order.
    for i in range(1, len(served)):
        if rounds[i] == rounds[i - 1]:
            assert clients[i] > clients[i - 1]
    # Per client, positions appear in execution order 0..n-1.
    for c, n in enumerate(lengths):
        assert [p for cc, p in served if cc == c] == list(range(n))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 20), max_size=8))
def test_interleave_order_is_deterministic(lengths):
    """Same lengths, same order — the schedule carries no hidden state."""
    from repro.simulator.engine import interleave_order

    c1, p1 = interleave_order(lengths)
    c2, p2 = interleave_order(lengths)
    assert (c1 == c2).all() and (p1 == p2).all()
    assert len(c1) == len(p1) == sum(lengths)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 20), max_size=8))
def test_interleave_per_client_share_is_exact(lengths):
    """Each client appears exactly its stream-length many times."""
    from repro.simulator.engine import interleave_order

    clients, _ = interleave_order(lengths)
    counts = np.bincount(clients, minlength=len(lengths))
    assert counts.tolist() == list(lengths)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 20), max_size=8))
def test_fast_engine_interleave_memo_matches_reference(lengths):
    """The schedule ``simulate`` memoizes for both cores is
    ``interleave_order`` — same arrays on first build, the identical
    cached objects after."""
    from repro.simulator.engine import _interleave, interleave_order

    ref_c, ref_p = interleave_order(lengths)
    memo_c, memo_p = _interleave(tuple(lengths))
    assert (memo_c == ref_c).all() and (memo_p == ref_p).all()
    again_c, again_p = _interleave(tuple(lengths))
    assert again_c is memo_c and again_p is memo_p


@settings(max_examples=20, deadline=None)
@given(traces)
def test_recorder_observes_exact_io_accounting(per_client):
    """Replaying any workload with a memory recorder, the sum of access
    and write-back costs per client reconstructs io_ms exactly."""
    from repro.trace.events import Access, Writeback
    from repro.trace.recorder import MemoryRecorder

    rec = MemoryRecorder()
    res, h, streams = run_sim(per_client, recorder=rec)
    per = {c: 0.0 for c in range(len(res.per_client_io_ms))}
    for e in rec.events:
        if isinstance(e, (Access, Writeback)):
            per[e.client] += e.cost_ms
    for c, total in per.items():
        assert total == pytest.approx(res.per_client_io_ms[c])
