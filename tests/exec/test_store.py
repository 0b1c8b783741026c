"""Failure-path and round-trip tests for the content-addressed store."""

import json
import multiprocessing
import os
import pathlib

import pytest

from repro.exec.keys import experiment_key
from repro.exec.store import (
    RESULT_STORE_SCHEMA_VERSION,
    MemoryStore,
    ResultStore,
)
from repro.experiments.config import scaled_config
from repro.experiments.report import ExperimentReport
from repro.simulator.runner import run_experiment
from repro.simulator.serialization import result_to_dict
from repro.workloads.suite import get_workload


@pytest.fixture(scope="module")
def config():
    return scaled_config(16)


@pytest.fixture(scope="module")
def result(config):
    return run_experiment(get_workload("hf"), config, "original")


@pytest.fixture(scope="module")
def key(config):
    return experiment_key("hf", config, "original")


def _report(i: int = 0) -> ExperimentReport:
    return ExperimentReport(
        f"test-{i}",
        "a small report",
        ["col"],
        [[f"row-{i}"]],
        notes=["note"],
        summary={"x": float(i)},
    )


class TestRoundTrip:
    def test_get_miss_then_hit(self, tmp_path, key, result):
        store = ResultStore(tmp_path)
        assert store.get(key) is None
        store.put(key, result)
        cached = store.get(key)
        assert cached is not None
        assert result_to_dict(cached) == result_to_dict(result)

    def test_traffic_counters(self, tmp_path, key, result):
        store = ResultStore(tmp_path)
        store.get(key)
        store.put(key, result)
        store.get(key)
        s = store.stats()
        assert (s.misses, s.writes, s.hits) == (1, 1, 1)
        assert s.entries == 1
        assert s.results == 1
        assert s.bytes > 0

    def test_shard_directory_made_once(self, tmp_path, monkeypatch, config, result):
        store = ResultStore(tmp_path)
        first = experiment_key("hf", config, "original")
        second = next(
            k
            for k in (
                experiment_key("hf", config, "original", {"n": i})
                for i in range(10_000)
            )
            if k.digest[:2] == first.digest[:2]
        )
        assert store.put(first, result).parent.name == first.digest[:2]
        mkdirs = []
        real_mkdir = pathlib.Path.mkdir

        def counting_mkdir(self, *args, **kwargs):
            mkdirs.append(self)
            return real_mkdir(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "mkdir", counting_mkdir)
        store.put(second, result)
        assert mkdirs == []
        assert store.get(first) is not None and store.get(second) is not None

    def test_report_round_trip(self, tmp_path, config):
        store = ResultStore(tmp_path)
        key = experiment_key("t", config, "@report", {"kind": "report"})
        assert store.get_report(key) is None
        store.put_report(key, _report())
        back = store.get_report(key)
        assert back is not None
        assert back.render() == _report().render()

    def test_kind_mismatch_is_miss(self, tmp_path, key, result):
        store = ResultStore(tmp_path)
        store.put(key, result)
        assert store.get_report(key) is None


class TestCorruption:
    def test_truncated_entry_is_miss_and_rewritten(self, tmp_path, key, result):
        store = ResultStore(tmp_path)
        path = store.put(key, result)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get(key) is None
        assert not path.exists()  # broken file unlinked, slot heals
        store.put(key, result)
        assert store.get(key) is not None
        assert store.stats().corrupt_dropped == 1

    def test_garbage_entry_is_miss(self, tmp_path, key, result):
        store = ResultStore(tmp_path)
        path = store.put(key, result)
        path.write_bytes(b"\x00\xffnot json")
        assert store.get(key) is None

    def test_foreign_json_is_miss(self, tmp_path, key, result):
        store = ResultStore(tmp_path)
        path = store.put(key, result)
        path.write_text(json.dumps({"record": "something-else"}))
        assert store.get(key) is None
        assert store.stats().corrupt_dropped == 1

    def test_checksum_mismatch_is_miss(self, tmp_path, key, result):
        store = ResultStore(tmp_path)
        path = store.put(key, result)
        doc = json.loads(path.read_text())
        doc["payload"]["mapping_time_s"] = 123.456  # tampered payload
        path.write_text(json.dumps(doc))
        assert store.get(key) is None
        assert store.stats().corrupt_dropped == 1

    def test_schema_bump_invalidates(self, tmp_path, key, result):
        store = ResultStore(tmp_path)
        path = store.put(key, result)
        doc = json.loads(path.read_text())
        doc["schema_version"] = RESULT_STORE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(doc))
        assert store.get(key) is None
        assert not path.exists()
        s = store.stats()
        assert s.invalidated == 1
        assert s.corrupt_dropped == 0


def _write_entry(item):
    root, i = item
    from repro.experiments.config import scaled_config

    cfg = scaled_config(16)
    store = ResultStore(root)
    key = experiment_key("t", cfg, "@report", {"kind": "report"})
    for _ in range(5):
        store.put_report(key, _report(i))
    return True


class TestConcurrency:
    def test_concurrent_writers_never_tear(self, tmp_path, config):
        """Racing writers of one key: readers always see a whole entry."""
        ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        with ctx.Pool(4) as pool:
            assert all(
                pool.map(_write_entry, [(str(tmp_path), i) for i in range(4)])
            )
        store = ResultStore(tmp_path)
        key = experiment_key("t", config, "@report", {"kind": "report"})
        report = store.get_report(key)
        assert report is not None  # valid — some writer's whole entry won
        assert store.stats().corrupt_dropped == 0
        assert not list(tmp_path.rglob("*.tmp"))  # no leftover temp files


class TestGc:
    def _fill(self, store, config, n):
        paths = []
        for i in range(n):
            key = experiment_key(f"r{i}", config, "@report", {"kind": "report"})
            path = store.put_report(key, _report(i))
            # Deterministic, distinct mtimes (filesystem granularity can
            # otherwise tie) so eviction order is exactly write order.
            os.utime(path, (1000.0 + i, 1000.0 + i))
            paths.append(path)
        return paths

    def test_gc_respects_size_cap(self, tmp_path, config):
        store = ResultStore(tmp_path)
        paths = self._fill(store, config, 6)
        sizes = [p.stat().st_size for p in paths]
        cap = sum(sizes[3:])  # room for the newest three only
        evicted = store.gc(cap)
        assert evicted == 3
        assert [p.exists() for p in paths] == [False] * 3 + [True] * 3
        assert store.stats().bytes <= cap

    def test_gc_is_lru_not_fifo(self, tmp_path, config):
        """A read refreshes recency: the oldest-*written* entry survives
        gc if it was read since, and the least-recently-used one goes."""
        store = ResultStore(tmp_path)
        paths = self._fill(store, config, 3)  # write order: 0, 1, 2
        key0 = experiment_key("r0", config, "@report", {"kind": "report"})
        assert store.get_report(key0) is not None  # touch entry 0
        assert paths[0].stat().st_mtime > paths[2].stat().st_mtime
        cap = sum(p.stat().st_size for p in paths[1:])  # room for two
        assert store.gc(cap) == 1
        # FIFO would have evicted entry 0; LRU evicts entry 1.
        assert [p.exists() for p in paths] == [True, False, True]
        s = store.stats()
        assert s.touches == 1
        assert s.evicted == 1

    def test_gc_without_cap_is_noop(self, tmp_path, config):
        store = ResultStore(tmp_path)
        self._fill(store, config, 3)
        assert store.gc() == 0
        assert store.stats().entries == 3

    def test_size_cap_enforced_on_write(self, tmp_path, config):
        probe = ResultStore(tmp_path / "probe")
        size = self._fill(probe, config, 1)[0].stat().st_size
        store = ResultStore(tmp_path / "capped", size_cap_bytes=3 * size + 2)
        self._fill(store, config, 6)
        s = store.stats()
        assert s.evicted >= 3
        assert s.bytes <= store.size_cap_bytes

    def test_bad_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, size_cap_bytes=0)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_bad_gc_budget_rejected(self, tmp_path, config, budget):
        store = ResultStore(tmp_path)
        self._fill(store, config, 2)
        with pytest.raises(ValueError):
            store.gc(budget)
        assert store.stats().entries == 2

    def test_clear(self, tmp_path, config):
        store = ResultStore(tmp_path)
        self._fill(store, config, 4)
        assert store.clear() == 4
        assert store.stats().entries == 0


class TestMemoryStore:
    def test_round_trip_applies_serialization(self, key, result):
        store = MemoryStore()
        assert store.get(key) is None
        store.put(key, result)
        cached = store.get(key)
        assert cached is not result
        assert result_to_dict(cached) == result_to_dict(result)

    def test_stats_and_clear(self, key, result, config):
        store = MemoryStore()
        store.put(key, result)
        store.put_report(
            experiment_key("t", config, "@report", {"kind": "report"}),
            _report(),
        )
        s = store.stats()
        assert (s.entries, s.results, s.reports) == (2, 1, 1)
        assert store.clear() == 2
        assert len(store) == 0
