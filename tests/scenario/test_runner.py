"""Scenario execution: identity, caching, parity, determinism."""

import dataclasses

import pytest

from repro.exec.context import use_execution
from repro.exec.executor import ExperimentExecutor
from repro.exec.keys import experiment_key
from repro.exec.plan import SweepPlan, execute_plan
from repro.exec.store import MemoryStore
from repro.experiments.config import scaled_config
from repro.scenario.registry import get_scenario
from repro.scenario.runner import (
    add_to_plan,
    result_digest,
    run_scenario,
    scenario_key,
)
from repro.scenario.spec import ScenarioSpec
from repro.scenario.stochastic import zipf_streams
from repro.scenario.traces import export_trace_csv, export_trace_jsonl
from repro.simulator.runner import run_experiment
from repro.simulator.serialization import result_to_dict
from repro.telemetry import MetricsRegistry, use_registry
from repro.workloads.suite import get_workload


@pytest.fixture
def config():
    return scaled_config(4)


def small_zipf(name="small-zipf", **params):
    merged = {"alpha": 1.2, "requests_per_client": 256, "num_chunks": 256}
    merged.update(params)
    return ScenarioSpec(name=name, kind="zipf", params=merged)


class TestKeyIdentity:
    def test_workload_scenario_shares_legacy_key(self, config):
        spec = ScenarioSpec(
            name="hf", kind="workload", params={"workload": "hf"}
        )
        legacy = experiment_key("hf", config, "inter+sched")
        assert scenario_key(spec, config).digest == legacy.digest

    def test_spec_params_distinguish_keys(self, config):
        a = scenario_key(small_zipf(), config)
        b = scenario_key(small_zipf(alpha=2.0), config)
        assert a.digest != b.digest

    def test_policy_matrix_distinguishes_keys(self, config):
        base = small_zipf()
        arc = dataclasses.replace(base, policies=("arc", "arc", "arc"))
        assert scenario_key(base, config).digest != scenario_key(arc, config).digest

    def test_trace_content_in_key(self, config, tmp_path):
        path = tmp_path / "t.csv"
        streams = zipf_streams(2, 32, 16, 1.0, seed=3)
        export_trace_csv(streams, path)
        spec = ScenarioSpec(
            name="tr", kind="trace", params={"path": str(path)}
        )
        before = scenario_key(spec, config).digest
        with open(path, "a") as fh:
            fh.write("0,7\n")
        assert scenario_key(spec, config).digest != before


class TestExecution:
    def test_workload_scenario_matches_legacy_result(self, config):
        result = run_scenario("hf", config)
        legacy = run_experiment(get_workload("hf"), config, "inter+sched")
        a, b = result_to_dict(result), result_to_dict(legacy)
        a.pop("mapping_time_s")
        b.pop("mapping_time_s")
        a.pop("extra", None)
        b.pop("extra", None)
        assert a == b

    def test_zipf_runs_end_to_end(self, config):
        result = run_scenario(small_zipf(), config)
        total = sum(s.accesses for s in result.sim.level_stats.values())
        assert total > 0
        assert result.extra["kind"] == "zipf"

    def test_onoff_runs_end_to_end(self, config):
        spec = ScenarioSpec(
            name="oo",
            kind="onoff",
            params={"requests_per_client": 128, "num_chunks": 128},
        )
        result = run_scenario(spec, config)
        assert result.extra["kind"] == "onoff"

    def test_warm_cache_rerun_simulates_nothing(self, config):
        spec = small_zipf()
        reg_cold, reg_warm = MetricsRegistry(), MetricsRegistry()
        with use_execution(store=MemoryStore()):
            with use_registry(reg_cold):
                cold = run_scenario(spec, config)
            with use_registry(reg_warm):
                warm = run_scenario(spec, config)
        assert reg_warm.counter("exec.tasks_run").value == 0
        a, b = result_to_dict(cold), result_to_dict(warm)
        a.pop("mapping_time_s")
        b.pop("mapping_time_s")
        assert a == b

    def test_trace_round_trip_same_hits_both_formats(self, config, tmp_path):
        """stream → export (csv AND jsonl) → ingest → simulate must give
        identical per-level hit counts for both formats."""
        streams = zipf_streams(
            num_clients=config.num_clients,
            num_chunks=256,
            requests_per_client=256,
            alpha=1.1,
            seed=11,
        )
        csv_p, jsonl_p = tmp_path / "t.csv", tmp_path / "t.jsonl"
        export_trace_csv(streams, csv_p)
        export_trace_jsonl(streams, jsonl_p)
        results = {}
        for fmt, path in (("csv", csv_p), ("jsonl", jsonl_p)):
            spec = ScenarioSpec(
                name=f"tr-{fmt}",
                kind="trace",
                params={"path": str(path), "format": fmt},
            )
            results[fmt] = run_scenario(spec, config)
        hits = {
            fmt: {
                lvl: (s.accesses, s.hits, s.misses)
                for lvl, s in r.sim.level_stats.items()
            }
            for fmt, r in results.items()
        }
        assert hits["csv"] == hits["jsonl"]
        assert result_digest(results["csv"]) == result_digest(results["jsonl"])

    def test_changed_trace_fails_closed_at_simulate(self, config, tmp_path):
        """A trace edited between keying and running is rejected, not
        silently simulated under the stale key."""
        from repro.exec.executor import TaskError

        path = tmp_path / "t.csv"
        export_trace_csv(zipf_streams(2, 32, 16, 1.0, seed=3), path)
        spec = ScenarioSpec(name="tr", kind="trace", params={"path": str(path)})
        plan = SweepPlan()
        key = add_to_plan(plan, spec, config)
        with open(path, "a") as fh:
            fh.write("0,7\n")
        with pytest.raises((TaskError, ValueError), match="changed since"):
            execute_plan(plan)
        assert key.digest  # key was built against the original content


class TestDeterminism:
    def test_same_spec_same_seed_same_digest(self, config):
        a = run_scenario(small_zipf(), config)
        b = run_scenario(small_zipf(), config)
        assert result_digest(a) == result_digest(b)

    def test_seed_changes_digest(self, config):
        a = run_scenario(small_zipf(), config)
        b = run_scenario(
            small_zipf(), dataclasses.replace(config, seed=config.seed + 1)
        )
        assert result_digest(a) != result_digest(b)

    def test_workers_match_serial_bit_for_bit(self, config):
        """Scenario payloads under a 4-worker pool must reproduce the
        serial run exactly: stream seeds derive from (seed, client),
        never from pool scheduling."""
        specs = [small_zipf(), small_zipf("zipf-b", alpha=0.9)]
        serial = {}
        for spec in specs:
            serial[spec.name] = run_scenario(spec, config)
        pooled = {}
        with use_execution(ExperimentExecutor(workers=4), MemoryStore()):
            for spec in specs:
                pooled[spec.name] = run_scenario(spec, config)
        for name in serial:
            a = result_to_dict(serial[name])
            b = result_to_dict(pooled[name])
            a.pop("mapping_time_s")
            b.pop("mapping_time_s")
            assert a == b, f"{name} diverged under workers=4"
