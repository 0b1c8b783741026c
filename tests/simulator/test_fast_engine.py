"""Unit tests for the vectorized engine's dispatch, memos and guards."""

import numpy as np
import pytest

from repro.hierarchy.topology import three_level_hierarchy, uniform_hierarchy
from repro.simulator import engines
from repro.simulator.engine import simulate as reference_simulate
from repro.simulator.fast import is_vectorizable, simulate as fast_simulate
from repro.simulator.serialization import _sim_to_dict
from repro.storage.filesystem import ParallelFileSystem


def make_system(l1=2, l2=4, l3=8, policy="lru"):
    h = three_level_hierarchy(4, 2, 1, (l1, l2, l3), policy=policy)
    fs = ParallelFileSystem(1, chunk_bytes=64 * 1024)
    return h, fs


def streams_for(traces, k=4):
    out = {c: np.empty(0, dtype=np.int64) for c in range(k)}
    for c, t in enumerate(traces):
        out[c] = np.asarray(t, dtype=np.int64)
    return out


class TestEngineRegistry:
    def test_engine_names(self):
        assert engines.ENGINE_NAMES == ("reference", "fast")

    def test_default_is_fast(self):
        assert engines.DEFAULT_ENGINE == "fast"

    def test_resolve_returns_the_named_module_function(self):
        assert engines.resolve_engine("reference") is reference_simulate
        assert engines.resolve_engine("fast") is fast_simulate

    def test_resolve_none_follows_the_process_default(self):
        prior = engines.get_default_engine()
        try:
            engines.set_default_engine("reference")
            assert engines.resolve_engine(None) is reference_simulate
            engines.set_default_engine("fast")
            assert engines.resolve_engine(None) is fast_simulate
        finally:
            engines.set_default_engine(prior)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            engines.resolve_engine("warp")
        with pytest.raises(ValueError):
            engines.set_default_engine("warp")

    def test_dispatcher_simulate_accepts_engine_kwarg(self):
        h, fs = make_system()
        streams = streams_for([[0, 1, 0]])
        via_ref = engines.simulate(streams, h, fs, engine="reference")
        h2, fs2 = make_system()
        via_fast = engines.simulate(streams, h2, fs2, engine="fast")
        assert _sim_to_dict(via_fast) == _sim_to_dict(via_ref)


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

    @pytest.mark.parametrize("policy", ["clock", "lfu", "mq"])
    def test_exotic_policies_do_not(self, policy):
        h, _ = make_system(policy=policy)
        assert not is_vectorizable(h)

    def test_one_exotic_level_disables_the_whole_hierarchy(self):
        h, _ = make_system(policy=("lru", "clock", "arc"))
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
    """The fast engine validates exactly like the reference (same
    checks, same order), including on the fallback path."""

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
        h, fs = make_system(policy="clock")
        res = fast_simulate(streams_for([[0, 1, 2, 0, 1]]), h, fs)
        h2, fs2 = make_system(policy="clock")
        ref = reference_simulate(streams_for([[0, 1, 2, 0, 1]]), h2, fs2)
        assert _sim_to_dict(res) == _sim_to_dict(ref)


class TestTopologies:
    """Non-three-level trees take the general vectorized loop."""

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
