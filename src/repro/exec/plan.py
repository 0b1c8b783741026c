"""Sweep planning: dedupe experiment tasks, consult the store, fan out.

A :class:`SweepPlan` collects the (workload, config, version) tasks of
one or more experiments and dedupes identical
:class:`~repro.exec.keys.ExperimentKey` digests — Figure 10 and
Figure 11 share all 24 of their (workload, config, version) triples,
and the Figure 12/13/14 sweeps each revisit the default-config point —
so a combined plan simulates every unique key exactly once.

:func:`execute_plan` is the batch entry point: store lookups first,
then the remaining misses through :func:`run_misses`.  That function
is the one miss path — the serve coalescer calls it too — running the
misses through the executor (process pool or in-process serial) with
store write-back and worker-metric merging.  Misses that share a
:func:`~repro.exec.keys.group_key` travel as one group payload, so
their worker builds the nest once, computes ``inter`` and
``inter+sched``'s shared distribution once and maps each
:class:`~repro.exec.keys.MappingKey` once.  Each group's metrics,
spans and store writes land as soon as its payload does, while the
pool still runs later groups; results return in task order.

:func:`plan_all` pre-plans everything ``repro all`` will need: the
union of the registered experiments' ``sweep(config)`` points, the
same points each figure's ``run()`` executes as one plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.exec.context import get_execution
from repro.exec.executor import ExperimentExecutor, group_payload, task_payload
from repro.exec.keys import ExperimentKey, MappingKey, experiment_key, group_key
from repro.obs.context import SpanContext, current_context
from repro.obs.tracer import get_tracer, span
from repro.simulator.metrics import ExperimentResult
from repro.simulator.serialization import result_from_dict
from repro.telemetry import get_registry, phase
from repro.util.log import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import SystemConfig
    from repro.experiments.report import ExperimentReport
    from repro.workloads.base import Workload

__all__ = [
    "ExperimentTask",
    "SweepPlan",
    "group_by_mapping",
    "run_misses",
    "execute_plan",
    "plan_all",
    "cached_report",
]

_LOG = get_logger("exec.plan")


@dataclass(frozen=True)
class ExperimentTask:
    """One runnable unit: a key plus the materials to execute it."""

    key: ExperimentKey
    workload: str
    config: "SystemConfig"
    version: str
    engine: tuple = ()
    #: Canonical-JSON scenario-spec fingerprint ("" = plain workload).
    #: A string, not a dict, so the frozen task stays hashable.
    scenario: str = ""

    @classmethod
    def create(
        cls,
        workload: str,
        config: "SystemConfig",
        version: str,
        engine: Mapping[str, Any] | None = None,
        scenario: Mapping[str, Any] | None = None,
    ) -> "ExperimentTask":
        """The task for one experiment, keyed by
        :func:`~repro.exec.keys.experiment_key` on the same inputs."""
        from repro.util.fingerprint import canonical_json

        return cls(
            key=experiment_key(workload, config, version, engine, scenario),
            workload=workload,
            config=config,
            version=version,
            engine=tuple(sorted((engine or {}).items())),
            scenario=canonical_json(dict(scenario)) if scenario else "",
        )

    def engine_dict(self) -> dict[str, Any]:
        return dict(self.engine)

    def scenario_dict(self) -> dict[str, Any] | None:
        import json

        return json.loads(self.scenario) if self.scenario else None

    def group_key(self) -> MappingKey | None:
        """The key the task travels and prepares under
        (:func:`~repro.exec.keys.group_key`); ``None`` for a generator
        or trace scenario, which has no mapper and is never grouped."""
        if self.scenario:
            return None
        return group_key(self.workload, self.config, self.version)


@dataclass
class SweepPlan:
    """An ordered, key-deduplicated collection of experiment tasks."""

    tasks: list[ExperimentTask] = field(default_factory=list)
    _seen: set[str] = field(default_factory=set)
    #: How many add() calls were dropped as duplicates of an earlier key.
    duplicates: int = 0

    def add(
        self,
        workload: "Workload | str",
        config: "SystemConfig",
        version: str,
        engine: Mapping[str, Any] | None = None,
        scenario: Mapping[str, Any] | None = None,
    ) -> ExperimentKey:
        """Add one task (idempotent per key); returns its key."""
        name = workload if isinstance(workload, str) else workload.name
        task = ExperimentTask.create(name, config, version, engine, scenario)
        if task.key.digest in self._seen:
            self.duplicates += 1
        else:
            self._seen.add(task.key.digest)
            self.tasks.append(task)
        return task.key

    def add_suite(
        self,
        config: "SystemConfig",
        versions: Sequence[str],
        workloads: "Sequence[Workload] | None" = None,
    ) -> dict[str, dict[str, ExperimentKey]]:
        """Add every (workload, version) pair of one sweep point, the
        workloads defaulting to the suite: ``{workload: {version: key}}``."""
        from repro.workloads.suite import SUITE

        return {
            w.name: {v: self.add(w, config, v) for v in versions}
            for w in (SUITE if workloads is None else workloads)
        }

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[ExperimentTask]:
        return iter(self.tasks)


def group_by_mapping(
    tasks: list[ExperimentTask], workers: int = 1
) -> list[list[ExperimentTask]]:
    """Tasks grouped by :func:`~repro.exec.keys.group_key`, groups in
    first-task order.

    When there are fewer groups than ``workers``, the largest group is
    halved until every worker has one or no group can split: mapping
    twice on two idle workers beats mapping once on one.
    """
    groups: dict[Any, list[ExperimentTask]] = {}
    for t in tasks:
        key = t.group_key()
        groups.setdefault(key if key is not None else t.key.digest, []).append(t)
    out = list(groups.values())
    while len(out) < workers:
        i = max(range(len(out)), key=lambda j: len(out[j]))
        if len(out[i]) < 2:
            break
        half = (len(out[i]) + 1) // 2
        out[i : i + 1] = [out[i][:half], out[i][half:]]
    return out


def run_misses(
    tasks: list[ExperimentTask],
    executor: ExperimentExecutor,
    store=None,
    parents: list[SpanContext | None] | None = None,
    on_group: Callable[[list[ExperimentTask]], None] | None = None,
) -> list[tuple[ExperimentResult, str]]:
    """The one miss path: simulate ``tasks`` and store them.

    Tasks grouped by :func:`group_by_mapping` run as one ``run_payloads``
    call.  As each group's payload lands, its worker metrics and spans
    merge into the active registry and tracer, its results go to
    ``store``, and then ``on_group(group)`` fires; a group that fails
    past its retries raises, with every group that landed before it
    already stored.  A group's payload parents its ``exec.task`` span
    onto its first task's entry in ``parents`` (default: the ambient
    span), and every task of the group reports that span id.  The only
    spans opened here are the ``store.put`` writes, parented explicitly
    onto it, so a caller with no ambient span (the serve batcher) gets
    no orphan root.  Returns ``(result, exec.task span id or "")`` per
    task, in task order.
    """
    reg = get_registry()
    tracer = get_tracer()
    if parents is None:
        parents = [current_context()] * len(tasks)
    parent_of = {t.key.digest: ctx for t, ctx in zip(tasks, parents)}
    groups = group_by_mapping(tasks, executor.workers)
    heads = [parent_of[group[0].key.digest] for group in groups]
    payloads = []
    for group, ctx in zip(groups, heads):
        cells = [
            task_payload(
                t.workload,
                t.config,
                t.version,
                t.engine_dict(),
                reg.enabled,
                scenario=t.scenario_dict(),
            )
            for t in group
        ]
        payload = cells[0] if len(cells) == 1 else group_payload(cells)
        if tracer.enabled:
            payload["trace"] = {
                "trace_id": ctx.trace_id if ctx else None,
                "parent_id": ctx.span_id if ctx else None,
            }
        payloads.append(payload)
    _LOG.debug(
        "executing %d tasks in %d payloads on %r", len(tasks), len(payloads), executor
    )
    fresh: dict[str, tuple[ExperimentResult, str]] = {}

    def land(i: int, out: dict[str, Any]) -> None:
        if reg.enabled and out.get("metrics"):
            reg.merge_snapshot(out["metrics"])
        if out.get("spans"):
            tracer.ingest(out["spans"])
        ctx = heads[i]
        span_id = out.get("span_id") or ""
        docs = out["results"] if "results" in out else [out["result"]]
        for t, doc in zip(groups[i], docs):
            result = result_from_dict(doc)
            if store is not None:
                with span(
                    "store.put",
                    trace_id=ctx.trace_id if ctx else None,
                    parent_id=span_id or (ctx.span_id if ctx else None),
                    digest=t.key.digest[:12],
                ):
                    store.put(t.key, result)
            fresh[t.key.digest] = (result, span_id)
        if on_group is not None:
            on_group(groups[i])

    executor.run_payloads(payloads, on_result=land)
    return [fresh[t.key.digest] for t in tasks]


def execute_plan(
    plan: SweepPlan | Iterable[ExperimentTask],
    executor=None,
    store=None,
    progress: Callable[[int, int], None] | None = None,
    outcomes: dict[str, str] | None = None,
) -> dict[str, ExperimentResult]:
    """Run a plan, consulting the store first: ``{key digest: result}``.

    ``executor``/``store`` default from the active execution context
    (:mod:`repro.exec.context`); with neither, tasks run serially
    in-process.  Results — cached or fresh — all pass through the same
    ``result_to_dict`` round-trip, so the output is bit-identical
    regardless of worker count or cache temperature.

    Misses go through :func:`run_misses` inside the ``execute_plan``
    phase, whose span the payloads parent onto.

    ``progress(done, total)`` fires once per task as its result becomes
    available (store hits first, then simulations as their group lands),
    so the campaign runner and ``repro all`` can show live completion
    without polling.  ``outcomes``, when given, is filled with
    ``{key digest: "cached" | "simulated"}`` — the provenance each
    campaign manifest cell records.
    """
    ctx = get_execution()
    executor = executor if executor is not None else ctx.executor
    store = store if store is not None else ctx.store
    tasks = list(plan)
    total = len(tasks)
    done = 0
    results: dict[str, ExperimentResult] = {}
    misses: list[ExperimentTask] = []
    for t in tasks:
        if store is not None:
            with span("store.get", digest=t.key.digest[:12]) as sp:
                cached = store.get(t.key)
                sp.set(hit=cached is not None)
        else:
            cached = None
        if cached is not None:
            results[t.key.digest] = cached
            if outcomes is not None:
                outcomes[t.key.digest] = "cached"
            done += 1
            if progress is not None:
                progress(done, total)
        else:
            misses.append(t)
    if misses:
        ex = executor if executor is not None else ExperimentExecutor()

        def _tick(group: list[ExperimentTask]) -> None:
            nonlocal done
            for _ in group:
                done += 1
                progress(done, total)

        with phase("execute_plan"):
            ran = run_misses(
                misses, ex, store, on_group=_tick if progress is not None else None
            )
        for t, (result, _) in zip(misses, ran):
            results[t.key.digest] = result
            if outcomes is not None:
                outcomes[t.key.digest] = "simulated"
    return results


def plan_all(config: "SystemConfig | None" = None) -> SweepPlan:
    """The union of the registered experiments' ``sweep(config)`` points
    (:data:`~repro.experiments.registry.PAPER_EXPERIMENTS`) as one
    deduplicated plan: executing it warms the store so that ``repro
    all``'s figures simulate nothing."""
    from repro.experiments.registry import PAPER_EXPERIMENTS

    plan = SweepPlan()
    for experiment in PAPER_EXPERIMENTS.values():
        for point_config, versions in experiment.sweep(config):
            plan.add_suite(point_config, versions)
    return plan


def cached_report(
    name: str,
    config: "SystemConfig",
    build: Callable[["SystemConfig"], "ExperimentReport"],
) -> "ExperimentReport":
    """Build-or-fetch a whole experiment report through the store.

    For experiments whose unit of caching is the rendered analysis
    rather than per-(workload, version) results — the §5.4 discussion
    pipelines map custom nests, so their cache key is just
    (experiment name, config).  Without an active store this is a
    plain ``build(config)`` call.
    """
    from repro.exec.store import _report_from_dict, _report_to_dict

    store = get_execution().store
    if store is None:
        # Same canonicalising round-trip as the cached path, so output
        # is identical with or without a store.
        return _report_from_dict(_report_to_dict(build(config)))
    key = experiment_key(name, config, "@report", {"kind": "report"})
    report = store.get_report(key)
    if report is None:
        # The same dict round-trip the store applies, so the report is
        # identical whether this call built it or a previous run did.
        report = _report_from_dict(_report_to_dict(build(config)))
        store.put_report(key, report)
    return report
