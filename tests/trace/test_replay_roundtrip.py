"""Record/replay round trip: the acceptance guarantee of the subsystem.

Recording a suite workload and replaying the saved artifact must
reproduce the direct :func:`run_experiment` result *exactly* — same
per-client times, level statistics and disk counters.
"""

import numpy as np
import pytest

from repro.experiments.config import scaled_config
from repro.simulator.runner import run_cells, run_experiment
from repro.trace.replay import (
    TRACE_ARTIFACT_VERSION,
    load_artifact,
    record,
    replay,
    save_artifact,
    with_cache_overrides,
)
from repro.workloads.suite import get_workload


def assert_identical(sim_a, sim_b):
    assert np.array_equal(sim_a.per_client_io_ms, sim_b.per_client_io_ms)
    assert np.array_equal(sim_a.per_client_compute_ms, sim_b.per_client_compute_ms)
    assert np.array_equal(sim_a.per_client_sync_ms, sim_b.per_client_sync_ms)
    assert sim_a.level_stats == sim_b.level_stats
    assert sim_a.disk_reads == sim_b.disk_reads
    assert sim_a.disk_writes == sim_b.disk_writes
    assert sim_a.disk_busy_ms == sim_b.disk_busy_ms


class TestRoundTrip:
    @pytest.mark.parametrize("version", ["original", "inter+sched"])
    def test_replay_reproduces_direct_run(self, tmp_path, version):
        config = scaled_config(16)
        direct = run_experiment(get_workload("hf"), config, version)
        artifact = record("hf", config, version)
        path = tmp_path / "hf.trace.npz"
        save_artifact(path, artifact)
        sim = replay(load_artifact(path))
        assert_identical(sim, direct.sim)

    def test_round_trip_with_writeback_masks(self, tmp_path):
        config = scaled_config(16, writeback=True)
        direct = run_experiment(get_workload("sar"), config, "inter")
        artifact = record("sar", config, "inter")
        assert artifact.write_masks is not None
        path = tmp_path / "sar.trace.npz"
        save_artifact(path, artifact)
        loaded = load_artifact(path)
        assert loaded.write_masks is not None
        assert_identical(replay(loaded), direct.sim)

    def test_round_trip_with_prefetch_and_sync(self, tmp_path):
        config = scaled_config(16, prefetch_degree=2)
        sync = {0: 2, 3: 1}
        (direct,) = run_cells(
            get_workload("contour"), [("inter+sched", config, {"sync_counts": sync})]
        )
        artifact = record("contour", config, "inter+sched", sync_counts=sync)
        path = tmp_path / "contour.trace.npz"
        save_artifact(path, artifact)
        loaded = load_artifact(path)
        assert loaded.sync_counts == sync
        assert loaded.prefetch_degree == 2
        assert_identical(replay(loaded), direct.sim)


class TestArtifact:
    def test_metadata_survives_round_trip(self, tmp_path):
        config = scaled_config(16)
        artifact = record("hf", config, "inter+sched")
        path = tmp_path / "hf.trace.npz"
        save_artifact(path, artifact)
        loaded = load_artifact(path)
        assert loaded.workload == "hf"
        assert loaded.mapper_version == "inter+sched"
        assert loaded.format_version == TRACE_ARTIFACT_VERSION
        assert loaded.config == config
        assert loaded.num_data_chunks == artifact.num_data_chunks
        assert loaded.iterations_per_client == artifact.iterations_per_client
        assert set(loaded.streams) == set(artifact.streams)
        for c in artifact.streams:
            assert np.array_equal(loaded.streams[c], artifact.streams[c])

    def test_fingerprint_is_json_safe(self):
        import json

        artifact = record("hf", scaled_config(16), "original")
        fp = artifact.fingerprint()
        assert json.loads(json.dumps(fp)) == fp
        assert fp["num_clients"] == 4

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError, match="unknown workload"):
            record("nosuch", scaled_config(16))

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="unknown version"):
            record("hf", scaled_config(16), "turbo")

    def test_future_format_version_rejected(self, tmp_path):
        import json

        import numpy as np_mod

        artifact = record("hf", scaled_config(16), "original")
        path = tmp_path / "hf.trace.npz"
        save_artifact(path, artifact)
        with np_mod.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "meta"}
            meta = json.loads(str(data["meta"]))
        meta["format_version"] = TRACE_ARTIFACT_VERSION + 1
        with open(path, "wb") as f:
            np_mod.savez_compressed(f, meta=np_mod.array(json.dumps(meta)), **arrays)
        with pytest.raises(ValueError, match="newer than this build"):
            load_artifact(path)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        with open(path, "wb") as f:
            np.savez_compressed(f, data=np.arange(3))
        with pytest.raises(ValueError, match="not a repro trace artifact"):
            load_artifact(path)


class TestWhatIf:
    def test_cache_override_changes_result(self):
        """Replay is a what-if tool: bigger caches => fewer misses."""
        config = scaled_config(16)
        artifact = record("hf", config, "original")
        base = replay(artifact)
        big = replay(
            artifact,
            config=with_cache_overrides(
                artifact, cache_elems=(8192, 16384, 32768)
            ),
        )
        assert big.disk_reads <= base.disk_reads
        assert big.io_latency_ms < base.io_latency_ms

    def test_prefetch_override(self):
        artifact = record("hf", scaled_config(16), "original")
        base = replay(artifact)
        pf = replay(artifact, prefetch_degree=2)
        # Prefetching issues extra (asynchronous) disk reads.
        assert pf.disk_reads >= base.disk_reads

    def test_policy_override_runs(self):
        artifact = record("hf", scaled_config(16), "original")
        cfg = with_cache_overrides(artifact, policy="fifo")
        sim = replay(artifact, config=cfg)
        assert sim.total_accesses() == artifact.total_requests()
