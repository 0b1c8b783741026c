"""Tests for the process-pool executor and its degradation paths."""

import pytest

from repro.exec.executor import (
    ExperimentExecutor,
    TaskError,
    run_payload,
    task_payload,
)
from repro.experiments.config import scaled_config
from repro.simulator.runner import run_experiment
from repro.simulator.serialization import result_to_dict
from repro.telemetry import MetricsRegistry, use_registry
from repro.workloads.suite import get_workload


@pytest.fixture(scope="module")
def config():
    return scaled_config(16)


@pytest.fixture(scope="module")
def payloads(config):
    return [
        task_payload("hf", config, "original"),
        task_payload("hf", config, "inter"),
        task_payload("sar", config, "original"),
    ]


def _strip_wallclock(doc):
    doc = dict(doc)
    doc.pop("mapping_time_s")
    return doc


@pytest.fixture(scope="module")
def serial_docs(payloads):
    return [
        _strip_wallclock(out["result"])
        for out in ExperimentExecutor(workers=1).run_payloads(payloads)
    ]


class TestRunPayload:
    def test_matches_direct_run(self, config):
        direct = run_experiment(get_workload("hf"), config, "original")
        out = run_payload(task_payload("hf", config, "original"))
        assert _strip_wallclock(out["result"]) == _strip_wallclock(
            result_to_dict(direct)
        )
        assert out["metrics"] is None

    def test_sync_counts_keys_survive_json(self, config):
        import json

        payload = task_payload(
            "hf", config, "original", {"sync_counts": {0: 2, 1: 3}}
        )
        payload = json.loads(json.dumps(payload))  # what pickling+store do
        out = run_payload(payload)
        sim = out["result"]["sim"]
        assert sum(sim["per_client_sync_ms"]) > 0.0

    def test_collect_metrics_returns_snapshot(self, config):
        out = run_payload(task_payload("hf", config, "original", None, True))
        names = {e["name"] for e in out["metrics"]["counters"]}
        assert "simulator.simulations" in names

    def test_metrics_stay_private(self, config):
        """Worker metric collection must not leak into the caller registry."""
        registry = MetricsRegistry()
        with use_registry(registry):
            run_payload(task_payload("hf", config, "original", None, True))
        assert registry.counter("simulator.simulations").value == 0


class TestPoolParity:
    def test_pool_matches_serial(self, payloads, serial_docs):
        ex = ExperimentExecutor(workers=2)
        outs = ex.run_payloads(payloads)
        assert [_strip_wallclock(o["result"]) for o in outs] == serial_docs

    def test_single_payload_short_circuits(self, payloads, serial_docs):
        outs = ExperimentExecutor(workers=4).run_payloads(payloads[:1])
        assert _strip_wallclock(outs[0]["result"]) == serial_docs[0]

    def test_workers_one_is_serial(self, payloads, serial_docs):
        outs = ExperimentExecutor(workers=1).run_payloads(payloads)
        assert [_strip_wallclock(o["result"]) for o in outs] == serial_docs


class TestDegradation:
    def test_unavailable_pool_degrades_to_serial(self, payloads, serial_docs):
        ex = ExperimentExecutor(workers=4, mp_context="no-such-start-method")
        outs = ex.run_payloads(payloads)
        assert [_strip_wallclock(o["result"]) for o in outs] == serial_docs

    def test_timeout_retries_in_process(self, payloads, serial_docs):
        ex = ExperimentExecutor(
            workers=2, task_timeout_s=1e-6, retries=1, backoff_s=0.0
        )
        outs = ex.run_payloads(payloads)
        assert [_strip_wallclock(o["result"]) for o in outs] == serial_docs

    def test_failing_task_raises_task_error(self, payloads):
        bad = dict(payloads[0], workload="no-such-workload")
        ex = ExperimentExecutor(workers=2, retries=1, backoff_s=0.0)
        with pytest.raises(TaskError) as excinfo:
            ex.run_payloads([payloads[1], bad])
        assert excinfo.value.__cause__ is not None

    def test_retry_counters(self, payloads):
        bad = dict(payloads[0], workload="no-such-workload")
        registry = MetricsRegistry()
        ex = ExperimentExecutor(workers=2, retries=2, backoff_s=0.0)
        with use_registry(registry):
            with pytest.raises(TaskError):
                ex.run_payloads([payloads[1], bad])
        assert registry.counter("exec.retries").value == 2
        assert registry.counter("exec.tasks.failed").value == 1

    def test_timeout_counter(self, payloads):
        registry = MetricsRegistry()
        ex = ExperimentExecutor(
            workers=2, task_timeout_s=1e-6, retries=1, backoff_s=0.0
        )
        with use_registry(registry):
            ex.run_payloads(payloads)
        # A 1 µs wait times out unless the pool finished the task first
        # (later futures are collected after real wall time has passed),
        # so at least the first wait times out; every timed-out task then
        # succeeds on its single in-process retry.
        timeouts = registry.counter("exec.timeouts").value
        assert timeouts >= 1
        assert registry.counter("exec.retries").value == timeouts


class TestValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ExperimentExecutor(workers=-1)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ExperimentExecutor(retries=-1)
