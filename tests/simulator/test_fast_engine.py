"""Unit tests for the engine choice, the fast core's memos and the
shared validation."""

from functools import partial

import numpy as np
import pytest

from repro.hierarchy.topology import three_level_hierarchy, uniform_hierarchy
from repro.simulator import engines, fast
from repro.simulator.engine import simulate as reference_simulate
from repro.simulator.fast import is_vectorizable
from repro.simulator.serialization import _sim_to_dict
from repro.storage.filesystem import ParallelFileSystem

fast_simulate = partial(reference_simulate, engine="fast")


def make_system(l1=2, l2=4, l3=8, policy="lru"):
    h = three_level_hierarchy(4, 2, 1, (l1, l2, l3), policy=policy)
    fs = ParallelFileSystem(1, chunk_bytes=64 * 1024)
    return h, fs


def streams_for(traces, k=4):
    out = {c: np.empty(0, dtype=np.int64) for c in range(k)}
    for c, t in enumerate(traces):
        out[c] = np.asarray(t, dtype=np.int64)
    return out


def _lookalike(policy):
    """A fresh policy of an empty subclass of ``policy``'s exact type."""
    cls = type(policy)
    lookalike = type(f"LookAlike{cls.__name__}", (cls,), {})
    return lookalike(policy.capacity) if hasattr(policy, "capacity") else lookalike()


class TestEngineRegistry:
    def test_engine_names(self):
        assert engines.ENGINE_NAMES == ("reference", "fast")

    def test_default_is_fast(self):
        assert engines.DEFAULT_ENGINE == "fast"

    def test_resolve_runs_the_named_core(self, level_pass_calls):
        h, fs = make_system()
        engines.resolve_engine("reference")(streams_for([[0, 1]]), h, fs)
        assert level_pass_calls == []
        engines.resolve_engine("fast")(streams_for([[0, 1]]), h, fs)
        assert len(level_pass_calls) == 1

    def test_resolve_none_follows_the_process_default(self, level_pass_calls):
        h, fs = make_system()
        prior = engines.get_default_engine()
        try:
            engines.set_default_engine("reference")
            engines.resolve_engine(None)(streams_for([[0, 1]]), h, fs)
            assert level_pass_calls == []
            engines.set_default_engine("fast")
            engines.resolve_engine(None)(streams_for([[0, 1]]), h, fs)
            assert len(level_pass_calls) == 1
        finally:
            engines.set_default_engine(prior)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            engines.resolve_engine("warp")
        with pytest.raises(ValueError):
            engines.set_default_engine("warp")
        h, fs = make_system()
        with pytest.raises(ValueError, match="unknown engine"):
            reference_simulate(streams_for([]), h, fs, engine="warp")


@pytest.fixture
def level_pass_calls(monkeypatch):
    """Spy on the fast core: the list grows by one per run it serves."""
    calls = []
    real = fast._level_pass

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fast, "_level_pass", spy)
    return calls


class TestCoreChoice:
    """The differentials compare two different cores only if ``fast``
    reaches the level pass and every other run never does."""

    def test_fast_reaches_the_level_pass(self, level_pass_calls):
        for policy in ("lru", "fifo", "arc", "rrip"):
            h, fs = make_system(policy=policy)
            fast_simulate(streams_for([[0, 1, 0]]), h, fs)
        assert len(level_pass_calls) == 4

    def test_reference_never_reaches_it(self, level_pass_calls):
        h, fs = make_system()
        reference_simulate(streams_for([[0, 1, 0]]), h, fs)
        reference_simulate(streams_for([[0, 1, 0]]), h, fs, engine="reference")
        assert level_pass_calls == []

    def test_recorder_run_never_reaches_it(self, level_pass_calls):
        from repro.trace.recorder import MemoryRecorder

        h, fs = make_system()
        fast_simulate(streams_for([[0, 1, 0]]), h, fs, recorder=MemoryRecorder())
        assert level_pass_calls == []

    @pytest.mark.parametrize("policy", ["lru", "fifo", "arc", "rrip"])
    def test_lookalike_policy_run_never_reaches_it(self, level_pass_calls, policy):
        h, fs = make_system(policy=policy)
        cache = h.path(0)[1]
        cache.policy = _lookalike(cache.policy)
        fast_simulate(streams_for([[0, 1, 0]]), h, fs)
        assert level_pass_calls == []


class TestVectorizability:
    def test_lru_and_fifo_hierarchies_vectorize(self):
        for policy in ("lru", "fifo", ("lru", "fifo", "lru")):
            h, _ = make_system(policy=policy)
            assert is_vectorizable(h)

    @pytest.mark.parametrize("policy", ["arc", "rrip"])
    def test_arc_and_rrip_vectorize(self, policy):
        for levels in (policy, ("lru", policy, "fifo"), ("arc", "rrip", policy)):
            h, _ = make_system(policy=levels)
            assert is_vectorizable(h)

    def test_one_exotic_level_disables_the_whole_hierarchy(self):
        h, _ = make_system(policy=("lru", "rrip", "arc"))
        assert is_vectorizable(h)
        cache = h.caches_at_level(h.level_names()[1])[0]
        cache.policy = _lookalike(cache.policy)
        assert not is_vectorizable(h)

    def test_lookalike_policy_subclass_is_rejected(self):
        # The fast loop mutates LRUPolicy's internal dict directly, so a
        # subclass with different internals must take the reference path.
        from repro.hierarchy.policies import LRUPolicy

        class NotQuiteLRU(LRUPolicy):
            pass

        h, _ = make_system()
        h.path(0)[0].policy = NotQuiteLRU()
        assert not is_vectorizable(h)

    @pytest.mark.parametrize("policy", ["arc", "rrip"])
    def test_lookalike_arc_and_rrip_subclasses_are_rejected(self, policy):
        # Likewise for ARC's T1/T2/B1/B2 and RRIP's RRPV dict: only the
        # exact classes run inline.
        from repro.hierarchy.policies import ARCPolicy, RRIPPolicy

        base = ARCPolicy if policy == "arc" else RRIPPolicy

        class LookAlike(base):
            pass

        h, _ = make_system(policy=policy)
        cache = h.path(0)[1]
        cache.policy = LookAlike(cache.capacity) if policy == "arc" else LookAlike()
        assert not is_vectorizable(h)


class TestStaticMemo:
    def test_static_is_cached_on_the_hierarchy(self):
        h, fs = make_system()
        fast_simulate(streams_for([[0, 1]]), h, fs)
        static = h._fast_static
        fast_simulate(streams_for([[0, 1]]), h, fs)
        assert h._fast_static is static

    def test_policy_swap_invalidates_the_memo(self):
        from repro.hierarchy.policies import FIFOPolicy

        h, fs = make_system()
        fast_simulate(streams_for([[0, 1]]), h, fs)
        stale = h._fast_static
        h.path(0)[0].policy = FIFOPolicy()
        fast_simulate(streams_for([[0, 1]]), h, fs)
        assert h._fast_static is not stale

    def test_capacity_change_invalidates_the_memo(self):
        h, fs = make_system()
        fast_simulate(streams_for([[0, 1]]), h, fs)
        stale = h._fast_static
        h.path(0)[0].capacity = 7
        fast_simulate(streams_for([[0, 1]]), h, fs)
        assert h._fast_static is not stale


class TestValidation:
    """One validation in ``simulate`` serves both cores and the
    fallback path."""

    def test_missing_client_rejected(self):
        h, fs = make_system()
        with pytest.raises(ValueError, match="streams must cover"):
            fast_simulate({0: np.empty(0, dtype=np.int64)}, h, fs)

    def test_latency_level_mismatch_rejected(self):
        from repro.simulator.engine import LatencyModel

        h, fs = make_system()
        with pytest.raises(ValueError, match="latency model"):
            fast_simulate(
                streams_for([]), h, fs, latency=LatencyModel(level_ms=(0.1, 0.2))
            )

    def test_negative_prefetch_rejected(self):
        h, fs = make_system()
        with pytest.raises(ValueError, match="prefetch_degree"):
            fast_simulate(streams_for([]), h, fs, prefetch_degree=-1)

    def test_misaligned_mask_rejected(self):
        h, fs = make_system()
        streams = streams_for([[1, 2]])
        masks = {c: np.zeros(0, dtype=bool) for c in range(4)}
        masks[0] = np.array([True])
        with pytest.raises(ValueError, match="write mask"):
            fast_simulate(streams, h, fs, write_masks=masks)

    def test_negative_chunk_ids_rejected(self):
        h, fs = make_system()
        with pytest.raises(ValueError, match="non-negative"):
            fast_simulate(streams_for([[0, -3]]), h, fs)
        with pytest.raises(ValueError, match="non-negative"):
            reference_simulate(streams_for([[0, -3]]), h, fs)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_mask_missing_for_an_empty_client_rejected(self, engine):
        # Client 0 has no accesses, and no mask entry at all.
        h, fs = make_system()
        streams = streams_for([[], [1, 2], [3], [4]])
        masks = {c: np.zeros(len(streams[c]), dtype=bool) for c in (1, 2, 3)}
        with pytest.raises(ValueError, match="write mask of client 0"):
            reference_simulate(streams, h, fs, write_masks=masks, engine=engine)


class TestFallback:
    def test_recorder_run_takes_the_reference_path(self):
        from repro.trace.events import Access
        from repro.trace.recorder import MemoryRecorder

        h, fs = make_system()
        rec = MemoryRecorder()
        fast_simulate(streams_for([[0, 1, 0]]), h, fs, recorder=rec)
        # Only the reference loop emits events; the fast loop cannot.
        assert len([e for e in rec.events if isinstance(e, Access)]) == 3

    def test_disabled_recorder_stays_on_the_fast_path(self):
        class DisabledRecorder:
            enabled = False

            def record(self, event):  # pragma: no cover - must not run
                raise AssertionError("disabled recorder was called")

        h, fs = make_system()
        res = fast_simulate(
            streams_for([[0, 1, 0]]), h, fs, recorder=DisabledRecorder()
        )
        h2, fs2 = make_system()
        ref = reference_simulate(streams_for([[0, 1, 0]]), h2, fs2)
        assert _sim_to_dict(res) == _sim_to_dict(ref)

    def test_exotic_policy_run_matches_reference(self):
        h, fs = make_system(policy="rrip")
        for cache in h.caches_at_level(h.level_names()[1]):
            cache.policy = _lookalike(cache.policy)
        res = fast_simulate(streams_for([[0, 1, 2, 0, 1]]), h, fs)
        h2, fs2 = make_system(policy="rrip")
        ref = reference_simulate(streams_for([[0, 1, 2, 0, 1]]), h2, fs2)
        assert _sim_to_dict(res) == _sim_to_dict(ref)


class TestTopologies:
    """Two- and four-level trees match the reference through the one
    level-by-level pass, with and without read-ahead."""

    @pytest.mark.parametrize("prefetch_degree", [0, 2])
    @pytest.mark.parametrize(
        "fanouts,caps",
        [
            ((1, 4), (16, 2)),  # two levels
            ((1, 2, 2, 2), (32, 16, 8, 2)),  # four levels
        ],
    )
    def test_deep_and_shallow_trees_match_reference(
        self, fanouts, caps, prefetch_degree
    ):
        from repro.simulator.engine import LatencyModel

        rng = np.random.default_rng(7)
        k = 1
        for f in fanouts[1:]:
            k *= f
        traces = [rng.integers(0, 24, size=30).tolist() for _ in range(k)]
        latency = LatencyModel(level_ms=(0.01,) * len(fanouts))

        def build():
            return (
                uniform_hierarchy(fanouts, caps),
                ParallelFileSystem(1, chunk_bytes=64 * 1024),
            )

        h, fs = build()
        res = fast_simulate(
            streams_for(traces, k=k), h, fs, latency=latency,
            prefetch_degree=prefetch_degree,
        )
        h2, fs2 = build()
        ref = reference_simulate(
            streams_for(traces, k=k), h2, fs2, latency=latency,
            prefetch_degree=prefetch_degree,
        )
        assert _sim_to_dict(res) == _sim_to_dict(ref)

    def test_empty_streams_everywhere(self):
        h, fs = make_system()
        res = fast_simulate(streams_for([]), h, fs)
        assert res.level_stats["L1"].accesses == 0
        assert (res.per_client_io_ms == 0).all()
        assert res.disk_reads == 0


class CountingStream(np.ndarray):
    """An int64 stream that counts ``.max()`` calls (the bound scan)."""

    def max(self, *args, **kwargs):  # noqa: A003
        CountingStream.max_calls += 1
        return super().max(*args, **kwargs)

    max_calls = 0


def counting_streams(traces, k=4):
    out = {}
    for c in range(k):
        t = traces[c] if c < len(traces) else []
        arr = np.asarray(t, dtype=np.int64).view(CountingStream)
        out[c] = arr
    return out


class TestPrefetchBoundScan:
    """The prefetch bound must come from ``num_data_chunks`` when given —
    no silent per-call scan over every stream (the engine.py hot-path
    fix this suite pins down)."""

    def setup_method(self):
        CountingStream.max_calls = 0

    def test_no_stream_scan_when_bound_is_declared(self):
        h, fs = make_system()
        streams = counting_streams([[0, 1, 2], [3, 4]])
        reference_simulate(
            streams, h, fs, prefetch_degree=2, num_data_chunks=16
        )
        assert CountingStream.max_calls == 0

    def test_no_stream_scan_without_prefetching(self):
        h, fs = make_system()
        streams = counting_streams([[0, 1, 2], [3, 4]])
        reference_simulate(streams, h, fs)
        assert CountingStream.max_calls == 0

    def test_fallback_scan_only_when_prefetching_without_a_bound(self):
        h, fs = make_system()
        streams = counting_streams([[0, 1, 2], [3, 4]])
        reference_simulate(streams, h, fs, prefetch_degree=1)
        # One scan per non-empty stream, once per call — the documented
        # fallback for callers that never declared a data-space size.
        assert CountingStream.max_calls == 2

    def test_fast_engine_never_scans_streams_for_the_bound(self):
        h, fs = make_system()
        streams = counting_streams([[0, 1, 2], [3, 4]])
        fast_simulate(streams, h, fs, prefetch_degree=2, num_data_chunks=16)
        assert CountingStream.max_calls == 0
