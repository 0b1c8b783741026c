"""Tests for sweep planning, store-first execution and determinism."""

import pytest

from repro.exec import (
    ExperimentExecutor,
    MemoryStore,
    SweepPlan,
    cached_report,
    execute_plan,
    plan_all,
    use_execution,
)
from repro.exec.executor import TaskError
from repro.exec.plan import group_by_mapping, run_misses
from repro.experiments.config import scaled_config
from repro.experiments.harness import run_suite
from repro.experiments.report import ExperimentReport
from repro.simulator.serialization import result_to_dict
from repro.telemetry import MetricsRegistry, use_registry
from repro.workloads.suite import SUITE, get_workload


@pytest.fixture(scope="module")
def config():
    return scaled_config(16)


@pytest.fixture(scope="module")
def workloads():
    return [get_workload("hf"), get_workload("sar")]


class TestSweepPlan:
    def test_dedup_by_key(self, config, workloads):
        plan = SweepPlan()
        k1 = plan.add("hf", config, "inter")
        k2 = plan.add("hf", config, "inter")
        assert k1 == k2
        assert len(plan) == 1
        assert plan.duplicates == 1

    def test_add_suite(self, config):
        plan = SweepPlan()
        plan.add_suite(config, ("original", "inter"))
        assert len(plan) == 2 * len(SUITE)
        plan.add_suite(config, ("original",))  # all duplicates
        assert len(plan) == 2 * len(SUITE)
        assert plan.duplicates == len(SUITE)

    def test_plan_all_dedupes_shared_points(self, config):
        """Figure 10/11 share triples; the sweeps share the default point."""
        plan = plan_all(config)
        assert len(plan) > 0
        assert plan.duplicates > 0
        digests = [t.key.digest for t in plan]
        assert len(digests) == len(set(digests))


class TestExecutePlan:
    def test_store_first(self, config, workloads):
        plan = SweepPlan()
        for w in workloads:
            plan.add(w, config, "original")
        store = MemoryStore()
        first = execute_plan(plan, store=store)
        registry = MetricsRegistry()
        with use_registry(registry):
            second = execute_plan(plan, store=store)
        # Warm pass: everything from the store, nothing simulated.
        assert registry.counter("simulator.simulations").value == 0
        assert registry.counter("exec.store.hits").value == len(plan)
        assert {d: result_to_dict(r) for d, r in first.items()} == {
            d: result_to_dict(r) for d, r in second.items()
        }

    def test_results_keyed_by_digest(self, config, workloads):
        plan = SweepPlan()
        keys = [plan.add(w, config, "original") for w in workloads]
        results = execute_plan(plan)
        assert set(results) == {k.digest for k in keys}
        for w, key in zip(workloads, keys):
            assert results[key.digest].workload == w.name


class TestHarnessIntegration:
    def test_run_suite_unchanged_without_context(self, config, workloads):
        results = run_suite(config, versions=("original",), workloads=workloads)
        assert set(results) == {w.name for w in workloads}

    def test_run_suite_uses_store(self, config, workloads):
        store = MemoryStore()
        registry = MetricsRegistry()
        with use_execution(store=store):
            run_suite(config, versions=("original",), workloads=workloads)
            with use_registry(registry):
                run_suite(config, versions=("original",), workloads=workloads)
        assert registry.counter("simulator.simulations").value == 0


def _counter_values(registry: MetricsRegistry) -> dict:
    """Deterministic counters only: drop the exec-traffic ones, which
    legitimately differ between a plain serial run and a pooled one."""
    return {
        (e["name"], tuple(sorted(e["labels"].items()))): e["value"]
        for e in registry.as_dict()["counters"]
        if not e["name"].startswith("exec.")
    }


class TestDeterminism:
    def test_workers_match_serial_bit_for_bit(self, config, workloads):
        """--workers 4 must reproduce serial results and metric values
        exactly: seeds derive from the key, never from pool order."""
        versions = ("original", "inter+sched")
        reg_serial = MetricsRegistry()
        with use_registry(reg_serial):
            serial = run_suite(config, versions=versions, workloads=workloads)
        reg_pool = MetricsRegistry()
        with use_registry(reg_pool):
            with use_execution(
                executor=ExperimentExecutor(workers=4), store=MemoryStore()
            ):
                pooled = run_suite(
                    config, versions=versions, workloads=workloads
                )
        for w in serial:
            for v in versions:
                a = result_to_dict(serial[w][v])
                b = result_to_dict(pooled[w][v])
                a.pop("mapping_time_s")  # wall-clock, not data
                b.pop("mapping_time_s")
                assert a == b, f"{w}/{v} diverged under workers=4"
        assert _counter_values(reg_serial) == _counter_values(reg_pool)


class TestCachedReport:
    def test_without_store_builds_every_time(self, config):
        calls = []

        def build(cfg):
            calls.append(cfg)
            return ExperimentReport("t", "t", ["c"], [["v"]], summary={"b": 2.0, "a": 1.0})

        cached_report("t", config, build)
        cached_report("t", config, build)
        assert len(calls) == 2

    def test_store_round_trip_and_canonical_order(self, config):
        calls = []

        def build(cfg):
            calls.append(cfg)
            return ExperimentReport("t", "t", ["c"], [["v"]], summary={"b": 2.0, "a": 1.0})

        with use_execution(store=MemoryStore()):
            fresh = cached_report("t", config, build)
            warm = cached_report("t", config, build)
        assert len(calls) == 1
        # Cache temperature must not change the rendered report — the
        # fresh copy is round-tripped (summary canonically sorted) too.
        assert fresh.render() == warm.render()
        assert list(fresh.summary) == ["a", "b"]


class TestGroupByMapping:
    """Misses sharing a group key travel as one payload."""

    @staticmethod
    def _plan(config):
        from dataclasses import replace

        plan = SweepPlan()
        for w in ("hf", "sar"):
            for v in ("original", "inter"):
                for cfg in (config, replace(config, writeback=True, prefetch_degree=2)):
                    plan.add(w, cfg, v)
        return plan

    def test_groups_share_a_mapping_key_in_first_task_order(self, config):
        tasks = list(self._plan(config))
        groups = group_by_mapping(tasks)
        assert [len(g) for g in groups] == [2, 2, 2, 2]
        assert [t for g in groups for t in g] == tasks
        for g in groups:
            assert len({t.group_key() for t in g}) == 1

    def test_split_only_when_fewer_groups_than_workers(self, config):
        tasks = [t for t in self._plan(config) if t.workload == "hf"]
        assert [len(g) for g in group_by_mapping(tasks, workers=2)] == [2, 2]
        assert [len(g) for g in group_by_mapping(tasks, workers=3)] == [1, 1, 2]
        assert [len(g) for g in group_by_mapping(tasks, workers=8)] == [1, 1, 1, 1]
        assert [len(g) for g in group_by_mapping(tasks[:2], workers=4)] == [1, 1]

    def test_scenario_tasks_are_never_grouped(self, config):
        from repro.scenario.registry import resolve_scenario
        from repro.scenario.runner import add_to_plan

        plan = SweepPlan()
        spec = resolve_scenario("zipf-hot")
        add_to_plan(plan, spec, config)
        add_to_plan(plan, spec, config.with_cache_capacities(256, 512, 2048))
        assert [t.group_key() for t in plan] == [None, None]
        assert [len(g) for g in group_by_mapping(list(plan))] == [1, 1]

    def test_execute_plan_maps_once_per_group(self, config):
        plan = self._plan(config)
        store = MemoryStore()
        seen = []
        registry = MetricsRegistry()
        with use_registry(registry):
            results = execute_plan(
                plan, store=store, progress=lambda d, t: seen.append((d, t))
            )
        assert registry.counter("simulator.simulations").value == 8
        assert registry.counter("prepare.reused").value == 4
        assert seen == [(i, 8) for i in range(1, 9)]
        assert all(store.get(t.key) is not None for t in plan)
        assert list(results) == [t.key.digest for t in plan]
        for t in plan:
            direct = _run_direct(t)
            assert _strip(result_to_dict(results[t.key.digest])) == _strip(
                result_to_dict(direct)
            )


    def test_inter_and_sched_share_one_distribution(self, config):
        from dataclasses import replace

        plan = SweepPlan()
        for v in ("inter", "inter+sched"):
            for cfg in (config, replace(config, writeback=True, prefetch_degree=2)):
                plan.add("hf", cfg, v)
        assert [len(g) for g in group_by_mapping(list(plan))] == [4]
        registry = MetricsRegistry()
        with use_registry(registry):
            results = execute_plan(plan, store=MemoryStore())
        assert registry.counter("simulator.simulations").value == 4
        assert registry.counter("prepare.reused").value == 2
        assert registry.counter("prepare.distribution_reused").value == 1
        clustering = [
            h["count"]
            for h in registry.as_dict()["histograms"]
            if h["name"] == "phase.duration_seconds"
            and h["labels"]["phase"].endswith("/clustering")
        ]
        assert sum(clustering) == 1
        for t in plan:
            assert _strip(result_to_dict(results[t.key.digest])) == _strip(
                result_to_dict(_run_direct(t))
            )


class TestStoreOnLand:
    """Each group's results reach the store as the group lands."""

    @pytest.mark.parametrize(
        "workers,error", [(1, KeyError), (2, TaskError)], ids=["serial", "pool"]
    )
    def test_groups_before_a_failed_one_are_stored(self, config, workers, error):
        plan = SweepPlan()
        for w, v in (("hf", "original"), ("hf", "intra"), ("no-such", "original")):
            plan.add(w, config, v)
        tasks = list(plan)
        store = MemoryStore()
        landed = []
        with pytest.raises(error):
            run_misses(
                tasks,
                ExperimentExecutor(workers=workers, retries=1, backoff_s=0.0),
                store,
                on_group=lambda group: landed.append(
                    [store.get(t.key) is not None for t in group]
                ),
            )
        # Stored before its progress tick, and before the failure raised.
        assert landed == [[True], [True]]
        assert [store.get(t.key) is not None for t in tasks] == [True, True, False]


def _strip(doc):
    return {k: v for k, v in doc.items() if k != "mapping_time_s"}


def _run_direct(task):
    from repro.simulator.runner import run_experiment

    return run_experiment(get_workload(task.workload), task.config, task.version)
