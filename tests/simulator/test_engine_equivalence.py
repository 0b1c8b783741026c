"""Differential equivalence: the fast engine vs the reference oracle.

The contract under test is *bit identity*, not statistical agreement:
for every supported configuration the vectorized engine must reproduce
the reference engine's serialised result — every counter, every float
(same accumulation order), every cache's residency order, every disk's
head position — exactly.  Three layers of evidence:

* golden replays — the checked-in artifacts for all eight suite
  workloads, pinned to reference-engine digests in ``expected.json``;
* trace-level comparison — recorded event streams diffed with
  :func:`repro.trace.diff.diff_traces`, zero divergence required;
* property-based search — Hypothesis generates adversarial streams,
  write masks, prefetch degrees and policy mixes looking for any input
  where the engines disagree.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hierarchy.topology import three_level_hierarchy
from repro.simulator.engines import resolve_engine
from repro.simulator.serialization import _sim_to_dict
from repro.storage.filesystem import ParallelFileSystem
from repro.trace.replay import load_artifact, replay

from tests.simulator.golden import (
    golden_path,
    golden_workloads,
    load_expected,
    machine_digest,
    sim_digest,
)

reference = resolve_engine("reference")
fast = resolve_engine("fast")

WORKLOADS = golden_workloads()


def fresh_machine(config):
    hierarchy = config.build_hierarchy()
    fs = ParallelFileSystem(
        config.num_storage_nodes,
        chunk_bytes=config.chunk_elems * 1024,
        disk_params=config.disk,
    )
    return hierarchy, fs


def replay_on(artifact, engine_name):
    config = artifact.config
    hierarchy, fs = fresh_machine(config)
    sim = replay(
        artifact, hierarchy=hierarchy, filesystem=fs, engine=engine_name
    )
    return sim, hierarchy, fs


class TestGoldenReplays:
    """Both engines must reproduce the pinned reference digests."""

    def test_all_eight_workloads_are_checked_in(self):
        assert WORKLOADS == sorted(
            ["hf", "sar", "contour", "astro", "e_elem", "apsi",
             "madbench2", "wupwise"]
        )

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("engine_name", ["reference", "fast"])
    def test_engine_matches_pinned_digests(self, workload, engine_name):
        artifact = load_artifact(golden_path(workload))
        expected = load_expected()["workloads"][workload]
        assert artifact.total_requests() == expected["requests"]
        sim, hierarchy, fs = replay_on(artifact, engine_name)
        assert sim_digest(sim) == expected["result_sha256"]
        assert machine_digest(hierarchy, fs) == expected["machine_sha256"]

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_results_and_machine_state_bit_identical(self, workload):
        artifact = load_artifact(golden_path(workload))
        ref_sim, ref_h, ref_fs = replay_on(artifact, "reference")
        fast_sim, fast_h, fast_fs = replay_on(artifact, "fast")
        # Full serialised results: every counter and float equal — not
        # approx-equal — because both engines accumulate in one order.
        assert _sim_to_dict(fast_sim) == _sim_to_dict(ref_sim)
        assert machine_digest(fast_h, fast_fs) == machine_digest(ref_h, ref_fs)


class TestTraceDiff:
    """Event-level equivalence through the trace diff machinery."""

    def test_recorded_replays_have_zero_divergence(self):
        from repro.trace.diff import diff_traces
        from repro.trace.recorder import MemoryRecorder

        artifact = load_artifact(golden_path("hf"))
        rec_ref, rec_fast = MemoryRecorder(), MemoryRecorder()
        h1, fs1 = fresh_machine(artifact.config)
        replay(
            artifact, hierarchy=h1, filesystem=fs1,
            engine="reference", recorder=rec_ref,
        )
        # A recorder forces the fast engine onto the reference loop
        # (events carry per-access detail vectorization cannot emit);
        # the dispatched run must still trace identically.
        h2, fs2 = fresh_machine(artifact.config)
        replay(
            artifact, hierarchy=h2, filesystem=fs2,
            engine="fast", recorder=rec_fast,
        )
        d = diff_traces(rec_ref.events, rec_fast.events)
        assert d.first_divergence is None
        assert d.hits_a == d.hits_b
        assert not d.movers

    def test_fast_counters_match_event_derived_truth(self):
        from repro.trace.events import Access
        from repro.trace.recorder import MemoryRecorder

        artifact = load_artifact(golden_path("madbench2"))
        rec = MemoryRecorder()
        h1, fs1 = fresh_machine(artifact.config)
        replay(
            artifact, hierarchy=h1, filesystem=fs1,
            engine="reference", recorder=rec,
        )
        fast_sim, _, _ = replay_on(artifact, "fast")
        levels = ["L1", "L2", "L3"]
        hits = {lvl: 0 for lvl in levels}
        for e in rec.events:
            # hit_level is -1 (MISS_LEVEL) for a disk-served full miss.
            if isinstance(e, Access) and e.hit_level >= 0:
                hits[levels[e.hit_level]] += 1
        for lvl in levels:
            assert fast_sim.level_stats[lvl].hits == hits[lvl]


class TestParallelExecution:
    """The pool path: fast-engine results survive the payload round-trip."""

    def test_workers_reproduce_reference_serial_run(self):
        from repro.exec.executor import ExperimentExecutor, task_payload
        from repro.experiments.config import scaled_config
        from repro.simulator.runner import run_experiment
        from repro.simulator.serialization import result_to_dict
        from repro.workloads.suite import get_workload

        def stable(doc):
            # Mapping wall-clock is measured, not simulated; it differs
            # run to run and is not part of the equivalence contract.
            return {k: v for k, v in doc.items() if k != "mapping_time_s"}

        config = scaled_config(16)
        workloads = ["hf", "sar", "contour", "astro"]
        serial = [
            stable(
                result_to_dict(
                    run_experiment(
                        get_workload(w), config, "inter+sched",
                        engine="reference",
                    )
                )
            )
            for w in workloads
        ]
        payloads = [
            task_payload(w, config, "inter+sched", engine={"engine": "fast"})
            for w in workloads
        ]
        pool = ExperimentExecutor(workers=4)
        parallel = [
            stable(out["result"]) for out in pool.run_payloads(payloads)
        ]
        assert parallel == serial

    def test_payload_pins_the_default_engine(self):
        from repro.exec.executor import task_payload
        from repro.experiments.config import scaled_config
        from repro.simulator.engines import get_default_engine

        payload = task_payload("hf", scaled_config(16), "original")
        assert payload["engine"]["engine"] == get_default_engine()


# -- property-based differential search --------------------------------------------


def run_both(per_client, *, policy="lru", prefetch_degree=0, masks=None,
             capacities=(2, 4, 8)):
    k = 4
    streams = {c: np.empty(0, dtype=np.int64) for c in range(k)}
    for c, trace in enumerate(per_client[:k]):
        streams[c] = np.asarray(trace, dtype=np.int64)
    write_masks = None
    if masks is not None:
        write_masks = {
            c: np.asarray(masks[c][: len(s)] + [False] * max(0, len(s) - len(masks[c])), dtype=bool)
            if c < len(masks)
            else np.zeros(len(s), dtype=bool)
            for c, s in streams.items()
        }
    out = []
    for engine in (reference, fast):
        h = three_level_hierarchy(k, 2, 1, capacities, policy=policy)
        fs = ParallelFileSystem(1, chunk_bytes=64 * 1024)
        sim = engine(
            streams, h, fs,
            write_masks=write_masks,
            prefetch_degree=prefetch_degree,
            num_data_chunks=32,
        )
        out.append((_sim_to_dict(sim), machine_digest(h, fs)))
    return out


traces = st.lists(
    st.lists(st.integers(0, 31), max_size=40),
    min_size=1,
    max_size=4,
)


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        traces, st.sampled_from(["lru", "fifo", "arc", "rrip"]), st.integers(0, 3)
    )
    def test_vectorized_policies_bit_identical(self, per_client, policy, pf):
        ref, fst = run_both(per_client, policy=policy, prefetch_degree=pf)
        assert fst == ref

    @settings(max_examples=40, deadline=None)
    @given(
        traces,
        st.lists(st.lists(st.booleans(), max_size=40), max_size=4),
        st.integers(0, 2),
    )
    def test_writeback_paths_bit_identical(self, per_client, masks, pf):
        ref, fst = run_both(
            per_client, masks=masks, prefetch_degree=pf
        )
        assert fst == ref

    @settings(max_examples=25, deadline=None)
    @given(traces, st.sampled_from(["clock", "lfu", "mq"]))
    def test_fallback_policies_bit_identical(self, per_client, policy):
        """Non-vectorized policies route to the reference loop — the
        dispatcher must still produce identical output to calling the
        reference directly."""
        ref, fst = run_both(per_client, policy=policy)
        assert fst == ref

    @settings(max_examples=25, deadline=None)
    @given(traces, st.integers(1, 3))
    def test_tiny_capacities_thrash_identically(self, per_client, cap):
        """Capacity-1..3 caches maximise evictions — the hardest case
        for victim-order agreement."""
        ref, fst = run_both(per_client, capacities=(cap, cap, cap))
        assert fst == ref
