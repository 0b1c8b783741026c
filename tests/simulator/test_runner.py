"""Tests for the experiment runner."""

import pytest

from repro.core.baselines import IntraProcessorMapper, OriginalMapper
from repro.core.mapper import InterProcessorMapper
from repro.experiments.config import scaled_config
from repro.simulator.runner import VERSIONS, make_mapper, run_experiment
from repro.workloads.suite import get_workload


@pytest.fixture(scope="module")
def tiny_config():
    return scaled_config(16)  # 4 clients, 2 I/O nodes, 1 storage node


class TestMakeMapper:
    def test_version_classes(self, tiny_config):
        assert isinstance(make_mapper("original", tiny_config), OriginalMapper)
        assert isinstance(make_mapper("intra", tiny_config), IntraProcessorMapper)
        inter = make_mapper("inter", tiny_config)
        assert isinstance(inter, InterProcessorMapper) and not inter.schedule
        sched = make_mapper("inter+sched", tiny_config)
        assert sched.schedule
        assert sched.alpha == tiny_config.alpha

    def test_unknown_version(self, tiny_config):
        with pytest.raises(ValueError):
            make_mapper("magic", tiny_config)

    def test_versions_tuple(self):
        assert VERSIONS == ("original", "intra", "inter", "inter+sched")


class TestRunExperiment:
    @pytest.mark.parametrize("version", VERSIONS)
    def test_all_versions_run(self, tiny_config, version):
        res = run_experiment(get_workload("hf"), tiny_config, version)
        assert res.version == version
        assert res.workload == "hf"
        assert res.io_latency_ms > 0
        assert res.execution_time_ms >= res.io_latency_ms
        assert set(res.sim.miss_rates()) == {"L1", "L2", "L3"}

    def test_deterministic(self, tiny_config):
        a = run_experiment(get_workload("sar"), tiny_config, "inter")
        b = run_experiment(get_workload("sar"), tiny_config, "inter")
        assert a.io_latency_ms == b.io_latency_ms
        assert a.sim.miss_rates() == b.sim.miss_rates()

    def test_seed_changes_random_order_runs(self, tiny_config):
        from dataclasses import replace

        c2 = replace(tiny_config, seed=999)
        a = run_experiment(get_workload("hf"), tiny_config, "original")
        b = run_experiment(get_workload("hf"), c2, "original")
        # Original ignores the RNG entirely: identical results.
        assert a.io_latency_ms == b.io_latency_ms

    def test_extra_metadata(self, tiny_config):
        res = run_experiment(get_workload("hf"), tiny_config, "inter")
        assert "imbalance" in res.extra
        assert res.mapping_time_s > 0


class TestPrepareMappings:
    def test_mixed_group_maps_each_version_as_alone(self, tiny_config):
        # ``original`` after ``inter`` must be mapped anew, not finalize
        # the inter distribution; ``inter+sched`` reuses it.
        from repro.simulator.runner import prepare_mapping, prepare_mappings
        from repro.telemetry import MetricsRegistry, use_registry

        from tests.core.golden import mapping_digest

        versions = ["inter", "original", "intra", "inter+sched"]
        workload = get_workload("hf")
        registry = MetricsRegistry()
        with use_registry(registry):
            grouped = prepare_mappings(workload, tiny_config, versions)
        assert registry.counter("prepare.distribution_reused").value == 1
        assert [p.version for p in grouped] == versions
        for prepared in grouped:
            alone = prepare_mapping(workload, tiny_config, prepared.version)
            assert mapping_digest(prepared.mapping, []) == mapping_digest(
                alone.mapping, []
            ), prepared.version
