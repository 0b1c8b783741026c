"""The perf gate CI runs (``benchmarks/gate.py``), on the committed records.

The gate must pass every pinned record compared with itself and fail on
the mutations it exists to catch.  Its bounds come from each pinned
record's ``gate`` block, the values the CI perf-gate job enforces.
"""

import copy
import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "gate", REPO / "benchmarks" / "gate.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _bench(name):
    return json.loads((REPO / f"BENCH_{name}.json").read_text())


def _row(doc, row_id):
    (row,) = [row for row in doc["rows"] if row["id"] == row_id]
    return row


def check(baseline, fresh):
    problems, _ = gate.compare(baseline, fresh)
    return problems


@pytest.mark.parametrize("name", ["scenarios", "campaign", "engine", "shard"])
def test_record_schema(name):
    doc = _bench(name)
    assert doc["record"] == f"repro-bench-{name}"
    assert set(doc["host"]) == {"cpu_count", "python", "numpy"}
    assert all({"id", "digest"} <= set(row) for row in doc["rows"])
    ids = [row["id"] for row in doc["rows"]]
    assert len(set(ids)) == len(ids)


class TestGate:
    def test_record_mismatch_fails(self):
        doc = _bench("scenarios")
        fresh = dict(copy.deepcopy(doc), record="repro-bench-campaign")
        (problem,) = check(doc, fresh)
        assert problem.startswith("record repro-bench-campaign")

    def test_loosened_gate_block_fails(self):
        doc = _bench("engine")
        fresh = copy.deepcopy(doc)
        fresh["gate"]["min_speedup"] = 1
        (problem,) = check(doc, fresh)
        assert "is not the pinned" in problem

    def test_bounds_come_from_the_baseline(self):
        doc = _bench("engine")
        fresh = copy.deepcopy(doc)
        fresh["gate"]["min_speedup"] = 1
        fresh["speedup"] = 4.9
        problems = check(doc, fresh)
        assert any("under the 5x floor" in p for p in problems)


class TestBenchRegression:
    @pytest.mark.parametrize("name", ["scenarios", "campaign"])
    def test_pinned_document_passes(self, name):
        doc = _bench(name)
        assert doc["gate"] == {"max_slowdown": 10, "floor_s": 1.0}
        assert check(doc, copy.deepcopy(doc)) == []

    @pytest.mark.parametrize("name", ["scenarios", "campaign"])
    def test_changed_row_digest_fails(self, name):
        doc = _bench(name)
        fresh = copy.deepcopy(doc)
        fresh["rows"][0]["digest"] = "0" * 64
        (problem,) = check(doc, fresh)
        assert "DIGEST CHANGED" in problem

    def test_missing_and_extra_cells_fail(self):
        doc = _bench("campaign")
        fresh = copy.deepcopy(doc)
        fresh["rows"][0]["id"] = "no/such/cell"
        problems = check(doc, fresh)
        assert len(problems) == 2
        assert any("missing from the fresh run" in p for p in problems)
        assert any("not in the baseline" in p for p in problems)

    def test_slow_cell_over_floor_fails(self):
        doc = _bench("scenarios")
        fresh = copy.deepcopy(doc)
        row = _row(fresh, "zipf-hot/default")
        row["seconds"] = max(1.5, row["seconds"] * 11)
        (problem,) = check(doc, fresh)
        assert "floor" in problem

    def test_slow_cell_under_floor_passes(self):
        doc = _bench("scenarios")
        fresh = copy.deepcopy(doc)
        row = _row(fresh, "zipf-hot/default")
        row["seconds"] = 0.99
        assert row["seconds"] > _row(doc, "zipf-hot/default")["seconds"] * 10
        assert check(doc, fresh) == []

    def test_slow_cell_within_ratio_passes(self):
        doc = _bench("campaign")
        _row(doc, "hf/original/fast/default")["seconds"] = 0.5
        fresh = copy.deepcopy(doc)
        _row(fresh, "hf/original/fast/default")["seconds"] = 1.5
        assert check(doc, fresh) == []

    def test_changed_report_digest_fails(self):
        doc = _bench("campaign")
        assert _row(doc, "report")["digest"].startswith("36f181a9")
        fresh = copy.deepcopy(doc)
        _row(fresh, "report")["digest"] = "f" * 64
        (problem,) = check(doc, fresh)
        assert problem.startswith("report: DIGEST CHANGED")


class TestEngineGate:
    def test_pinned_document_passes(self):
        doc = _bench("engine")
        assert doc["gate"] == {"min_speedup": 5, "min_row_speedup": 2}
        assert check(doc, copy.deepcopy(doc)) == []

    def test_geomean_under_floor_fails(self):
        doc = _bench("engine")
        fresh = copy.deepcopy(doc)
        fresh["speedup"] = 4.9
        (problem,) = check(doc, fresh)
        assert "under the 5x floor" in problem

    def test_row_under_floor_fails(self):
        doc = _bench("engine")
        fresh = copy.deepcopy(doc)
        _row(fresh, "hf/inter+sched/pf0/wt")["speedup"] = 1.9
        (problem,) = check(doc, fresh)
        assert problem.startswith("hf/inter+sched/pf0/wt: speedup 1.90x")
        assert "2x row floor" in problem


class TestShardGate:
    def test_pinned_document_passes(self):
        doc = _bench("shard")
        assert doc["gate"] == {"min_speedup": 2, "min_cores": 3}
        assert doc["host"]["cpu_count"] == 1
        problems, notes = gate.compare(doc, copy.deepcopy(doc))
        assert problems == []
        assert any("not enforced" in n for n in notes)

    def test_slow_scale_out_fails_on_three_cores(self):
        doc = _bench("shard")
        fresh = copy.deepcopy(doc)
        fresh["host"]["cpu_count"] = 3
        fresh["speedup"] = 1.9
        (problem,) = check(doc, fresh)
        assert "under the 2x floor on 3 core(s)" in problem

    def test_slow_scale_out_only_noted_on_one_core(self):
        doc = _bench("shard")
        fresh = copy.deepcopy(doc)
        fresh["host"]["cpu_count"] = 1
        fresh["speedup"] = 1.9
        problems, notes = gate.compare(doc, fresh)
        assert problems == []
        assert any("not enforced: 1 core(s) < 3" in n for n in notes)


def test_main_exit_codes(tmp_path, capsys):
    baseline = REPO / "BENCH_campaign.json"
    fresh = json.loads(baseline.read_text())
    _row(fresh, "manifest")["digest"] = "0" * 64
    fresh_path = tmp_path / "fresh.json"
    fresh_path.write_text(json.dumps(fresh))
    assert gate.main([str(baseline), str(baseline)]) == 0
    assert gate.main([str(baseline), str(fresh_path)]) == 1
    assert "manifest: DIGEST CHANGED" in capsys.readouterr().out
    assert gate.main([str(baseline)]) == 2
