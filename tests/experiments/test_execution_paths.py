"""Experiment output does not depend on the execution path.

Every registered paper experiment renders the same text serially, under
an in-memory store and on a 2-worker pool: results are a pure function
of their keys, so batching, caching and fan-out cannot show in a
report.  Only Figure 14's mapping-time column and its ``mapping_s_*``
summary entries are masked; they are wall-clock, not data.
"""

import pytest

from repro.exec import ExperimentExecutor, MemoryStore, plan_all, use_execution
from repro.exec.keys import experiment_key
from repro.experiments.config import scaled_config
from repro.experiments.registry import PAPER_EXPERIMENTS
from repro.experiments.report import ExperimentReport
from repro.workloads.suite import SUITE


@pytest.fixture(scope="module")
def config():
    return scaled_config(8)


def _masked(report: ExperimentReport) -> str:
    if report.experiment_id == "Figure 14":
        report = ExperimentReport(
            report.experiment_id,
            report.title,
            report.headers,
            [row[:3] + ["*"] for row in report.rows],
            notes=report.notes,
            summary={
                k: v
                for k, v in report.summary.items()
                if not k.startswith("mapping_s_")
            },
        )
    return report.render()


def _render_all(config) -> dict[str, str]:
    return {
        name: _masked(module.run(config))
        for name, module in PAPER_EXPERIMENTS.items()
    }


@pytest.fixture(scope="module")
def serial(config):
    return _render_all(config)


def test_store_renders_as_serial(config, serial):
    with use_execution(store=MemoryStore()):
        assert _render_all(config) == serial


def test_pool_renders_as_serial(config, serial):
    with use_execution(executor=ExperimentExecutor(workers=2)):
        assert _render_all(config) == serial


@pytest.mark.parametrize("scale", [None, 8])
def test_plan_all_is_the_union_of_the_sweeps(scale):
    config = scaled_config(scale) if scale else None
    union = {
        experiment_key(w.name, point_config, v).digest
        for module in PAPER_EXPERIMENTS.values()
        for point_config, versions in module.sweep(config)
        for w in SUITE
        for v in versions
    }
    assert {t.key.digest for t in plan_all(config)} == union
