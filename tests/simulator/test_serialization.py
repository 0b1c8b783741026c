"""Tests for result serialization."""

import json

import pytest

from repro.experiments.config import scaled_config
from repro.experiments.harness import run_suite
from repro.simulator.serialization import result_to_dict, save_results_json
from repro.workloads.suite import get_workload


class TestResultsJson:
    @pytest.fixture(scope="class")
    def results(self):
        return run_suite(
            scaled_config(16),
            versions=("original", "inter"),
            workloads=[get_workload("hf")],
        )

    def test_result_to_dict_fields(self, results):
        d = result_to_dict(results["hf"]["inter"])
        assert d["workload"] == "hf" and d["version"] == "inter"
        assert set(d["sim"]["levels"]) == {"L1", "L2", "L3"}
        assert d["sim"]["io_latency_ms"] > 0
        assert "imbalance" in d["extra"]

    def test_json_roundtrip(self, results, tmp_path):
        path = tmp_path / "results.json"
        save_results_json(path, results)
        loaded = json.loads(path.read_text())
        assert set(loaded) == {"hf"}
        assert set(loaded["hf"]) == {"original", "inter"}
        orig = loaded["hf"]["original"]["sim"]
        assert orig["levels"]["L1"]["accesses"] == results["hf"][
            "original"
        ].sim.level_stats["L1"].accesses

    def test_values_survive_json(self, results, tmp_path):
        path = tmp_path / "r.json"
        save_results_json(path, results)
        loaded = json.loads(path.read_text())
        assert loaded["hf"]["inter"]["sim"]["io_latency_ms"] == pytest.approx(
            results["hf"]["inter"].io_latency_ms
        )
