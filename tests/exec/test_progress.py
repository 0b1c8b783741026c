"""Progress reporting and executor event recording."""

import io

import pytest

from repro.exec import MemoryStore, SweepPlan, execute_plan
from repro.exec.executor import (
    ExperimentExecutor,
    TaskError,
    task_payload,
)
from repro.exec.progress import ProgressReporter
from repro.experiments.config import scaled_config
from repro.telemetry import MetricsRegistry, use_registry


@pytest.fixture(scope="module")
def config():
    return scaled_config(16)


def make_plan(config, n_versions=3):
    plan = SweepPlan()
    for v in ("original", "intra", "inter")[:n_versions]:
        plan.add("hf", config, v)
    return plan


class TestExecutePlanProgress:
    def test_progress_ticks_once_per_task(self, config):
        seen = []
        execute_plan(make_plan(config), progress=lambda d, t: seen.append((d, t)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_progress_counts_store_hits(self, config):
        store = MemoryStore()
        execute_plan(make_plan(config), store=store)
        seen = []
        outcomes = {}
        execute_plan(
            make_plan(config),
            store=store,
            progress=lambda d, t: seen.append((d, t)),
            outcomes=outcomes,
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]
        assert set(outcomes.values()) == {"cached"}

    def test_outcomes_mixed(self, config):
        store = MemoryStore()
        execute_plan(make_plan(config, n_versions=2), store=store)
        outcomes = {}
        execute_plan(make_plan(config), store=store, outcomes=outcomes)
        assert sorted(outcomes.values()) == ["cached", "cached", "simulated"]


class TestOnResult:
    def test_serial_executor_callback(self, config):
        payloads = [
            task_payload("hf", config, v) for v in ("original", "inter")
        ]
        ticks = []
        ExperimentExecutor(workers=1).run_payloads(
            payloads, on_result=lambda i, out: ticks.append(i)
        )
        assert ticks == [0, 1]

    def test_pool_executor_callback(self, config):
        payloads = [
            task_payload("hf", config, v)
            for v in ("original", "intra", "inter")
        ]
        ticks = []
        ex = ExperimentExecutor(workers=2)
        out = ex.run_payloads(payloads, on_result=lambda i, out: ticks.append(i))
        assert len(out) == 3
        assert sorted(ticks) == [0, 1, 2]


    @pytest.mark.parametrize("workers", [1, 2])
    def test_callback_error_ends_the_batch_unretried(self, config, workers):
        payloads = [task_payload("hf", config, v) for v in ("original", "intra")]

        def fail(i, out):
            raise OSError("store is full")

        registry = MetricsRegistry()
        with use_registry(registry), pytest.raises(OSError, match="store is full"):
            ExperimentExecutor(workers=workers).run_payloads(payloads, on_result=fail)
        assert registry.counter("exec.retries").value == 0


class TestExecutorEvents:
    def test_no_events_when_clean(self, config):
        ex = ExperimentExecutor(workers=2)
        ex.run_payloads([task_payload("hf", config, "original")] * 2)
        assert ex.pop_events() == []

    def test_serial_executor_has_no_events(self):
        assert ExperimentExecutor(workers=1).pop_events() == []

    def test_retry_events_recorded(self, config):
        bad = dict(task_payload("hf", config, "original"), workload="no-such")
        ex = ExperimentExecutor(workers=2, retries=1, backoff_s=0.0)
        with pytest.raises(TaskError):
            ex.run_payloads([task_payload("hf", config, "inter"), bad])
        events = ex.pop_events()
        assert any(e["kind"] == "retry" for e in events)
        retry = next(e for e in events if e["kind"] == "retry")
        assert retry["task"] == "no-such/original"
        assert "error" in retry
        # pop drains.
        assert ex.pop_events() == []


class TestProgressReporter:
    def test_non_tty_rate_limited(self):
        stream = io.StringIO()
        reporter = ProgressReporter(
            label="cells", stream=stream, min_interval_s=3600
        )
        for i in range(1, 10):
            reporter(i, 10)
        reporter(10, 10)
        reporter.close()
        lines = [l for l in stream.getvalue().splitlines() if l]
        # First call emits, intermediate ones are suppressed by the
        # interval, the final (done == total) always emits.
        assert len(lines) == 2
        assert lines[0].startswith("cells: 1/10")
        assert lines[-1].startswith("cells: 10/10")
        assert "/s" in lines[-1] and "eta" in lines[-1]

    def test_close_flushes_pending(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, min_interval_s=3600)
        reporter(1, 4)
        reporter(2, 4)  # suppressed
        reporter.close()
        lines = stream.getvalue().splitlines()
        assert lines[-1].startswith("cells: 2/4")

    def test_eta_formatting(self):
        from repro.exec.progress import _fmt_eta

        assert _fmt_eta(0) == "0m00s"
        assert _fmt_eta(61) == "1m01s"
        assert _fmt_eta(3600) == "1h00m"
        assert _fmt_eta(5400) == "1h30m"
