"""repro.exec — parallel experiment runtime + content-addressed result store.

The execution layer between the experiment harness and the simulator:

* :mod:`~repro.exec.keys` — stable :class:`ExperimentKey` identities
  (SHA-256 over workload, config fingerprint, version, engine options);
* :mod:`~repro.exec.store` — a content-addressed on-disk
  :class:`ResultStore` (atomic writes, checksums, schema versioning,
  size-capped gc) plus the ephemeral :class:`MemoryStore`;
* :mod:`~repro.exec.executor` — a process-pool
  :class:`ExperimentExecutor` with per-task timeouts, bounded retries
  and graceful degradation to serial in-process execution;
* :mod:`~repro.exec.plan` — :class:`SweepPlan` dedupes tasks across
  experiments and :func:`execute_plan` fans them out, store-first,
  through :func:`~repro.exec.plan.run_misses`, the one miss path (the
  serving tier's too);
* :mod:`~repro.exec.context` — the scoped executor/store pair that
  ``run_suite`` resolves its defaults from; the scope holds the
  executor's one pool.

Typical wiring (what ``repro all --workers 4 --cache DIR`` does)::

    from repro.exec import ExperimentExecutor, ResultStore, use_execution
    from repro.exec.plan import execute_plan, plan_all

    store = ResultStore("results-cache")
    executor = ExperimentExecutor(workers=4)
    with use_execution(executor=executor, store=store):
        execute_plan(plan_all(config))   # warm every unique key, in parallel
        report = figure11.run(config)    # pure store hits

Parallel execution is bit-identical to serial: seeds derive from the
key (config seed + workload + version), never from scheduling order,
and every result passes through one serialisation round-trip whether
it came from a worker, the store, or an in-process run.
"""

from repro.exec.context import ExecutionContext, get_execution, use_execution
from repro.exec.executor import (
    ExperimentExecutor,
    TaskError,
    run_payload,
    task_payload,
)
from repro.exec.keys import KEY_SCHEMA_VERSION, ExperimentKey, experiment_key
from repro.exec.plan import (
    ExperimentTask,
    SweepPlan,
    cached_report,
    execute_plan,
    plan_all,
)
from repro.exec.store import (
    RESULT_STORE_SCHEMA_VERSION,
    MemoryStore,
    ResultStore,
    StoreStats,
)

__all__ = [
    "KEY_SCHEMA_VERSION",
    "ExperimentKey",
    "experiment_key",
    "RESULT_STORE_SCHEMA_VERSION",
    "ResultStore",
    "MemoryStore",
    "StoreStats",
    "ExperimentExecutor",
    "TaskError",
    "task_payload",
    "run_payload",
    "ExperimentTask",
    "SweepPlan",
    "execute_plan",
    "plan_all",
    "cached_report",
    "ExecutionContext",
    "get_execution",
    "use_execution",
]
