"""The perf-gate scripts CI runs, against the committed BENCH documents.

Each gate must pass a pinned document compared with itself and fail on
the mutations it exists to catch.  Thresholds are the ones the CI
perf-gate job passes.
"""

import copy
import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]


def _load(script):
    spec = importlib.util.spec_from_file_location(
        script, REPO / "benchmarks" / f"{script}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(name):
    return json.loads((REPO / f"BENCH_{name}.json").read_text())


class TestBenchRegression:
    gate = _load("check_bench_regression")

    def check(self, baseline, fresh):
        return self.gate.compare(baseline, fresh, tolerance=10, floor_s=1.0)

    @pytest.mark.parametrize("name", ["scenarios", "campaign"])
    def test_pinned_document_passes(self, name):
        doc = _bench(name)
        assert self.check(doc, copy.deepcopy(doc)) == []

    @pytest.mark.parametrize("name", ["scenarios", "campaign"])
    def test_changed_row_digest_fails(self, name):
        doc = _bench(name)
        fresh = copy.deepcopy(doc)
        fresh["rows"][0]["digest"] = "0" * 64
        (problem,) = self.check(doc, fresh)
        assert "DIGEST CHANGED" in problem

    def test_missing_and_extra_cells_fail(self):
        doc = _bench("campaign")
        fresh = copy.deepcopy(doc)
        fresh["rows"][0]["cell"] = "no/such/cell"
        problems = self.check(doc, fresh)
        assert len(problems) == 2
        assert any("missing from the fresh run" in p for p in problems)
        assert any("not in the baseline" in p for p in problems)

    def test_slow_cell_over_floor_fails(self):
        doc = _bench("scenarios")
        fresh = copy.deepcopy(doc)
        row = fresh["rows"][0]
        row["seconds"] = max(1.5, row["seconds"] * 11)
        (problem,) = self.check(doc, fresh)
        assert "floor" in problem

    def test_slow_cell_under_floor_passes(self):
        doc = _bench("scenarios")
        fresh = copy.deepcopy(doc)
        row = fresh["rows"][0]
        row["seconds"] = 0.99
        assert row["seconds"] > doc["rows"][0]["seconds"] * 10
        assert self.check(doc, fresh) == []

    def test_changed_report_digest_fails(self):
        doc = _bench("campaign")
        fresh = copy.deepcopy(doc)
        fresh["report_digest"] = "f" * 64
        (problem,) = self.check(doc, fresh)
        assert problem.startswith("report_digest:")


class TestEngineGate:
    gate = _load("check_engine_gate")

    def check(self, baseline, fresh):
        return self.gate.compare(baseline, fresh, min_speedup=5, row_floor=2)

    def test_pinned_document_passes(self):
        doc = _bench("engine")
        assert self.check(doc, copy.deepcopy(doc)) == []

    def test_geomean_under_floor_fails(self):
        doc = _bench("engine")
        fresh = copy.deepcopy(doc)
        fresh["geomean_speedup"] = 4.9
        (problem,) = self.check(doc, fresh)
        assert "geomean speedup" in problem

    def test_row_under_floor_fails(self):
        doc = _bench("engine")
        fresh = copy.deepcopy(doc)
        fresh["rows"][0]["speedup"] = 1.9
        (problem,) = self.check(doc, fresh)
        assert "per-cell floor" in problem


class TestShardGate:
    gate = _load("check_shard_gate")

    def check(self, baseline, fresh):
        return self.gate.compare(baseline, fresh, min_speedup=2, min_cores=3)

    def test_pinned_document_passes(self):
        doc = _bench("shard")
        problems, _ = self.check(doc, copy.deepcopy(doc))
        assert problems == []

    def test_slow_scale_out_fails_on_three_cores(self):
        doc = _bench("shard")
        fresh = copy.deepcopy(doc)
        fresh.update(cpu_count=3, speedup=1.9)
        problems, _ = self.check(doc, fresh)
        assert len(problems) == 1 and "below the 2.00x floor" in problems[0]

    def test_slow_scale_out_only_noted_on_one_core(self):
        doc = _bench("shard")
        fresh = copy.deepcopy(doc)
        fresh.update(cpu_count=1, speedup=1.9)
        problems, notes = self.check(doc, fresh)
        assert problems == []
        assert any("floor skipped" in n for n in notes)
