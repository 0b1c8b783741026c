"""Layer-by-layer replay of one served request, for the traced run.

The replay performs the work the serving path performs for a cold
request, through the same functions the server's coalescer calls:
``ResultStore.get``, ``task_payload`` + ``run_payload`` (the worker
entry point, which runs ``run_experiment`` or ``run_scenario_payload``),
the ``result_to_dict`` round trip and ``ResultStore.put``.  The
benchmark opens a span around each of those calls; the steps *inside*
the worker (workload build, mapper and its inner passes, streams,
simulate) are spanned by swapping in wrappers for the duration of a
traced replay only (:data:`REPLAY_STEPS`).

The replayed result must reproduce the served digest; a mismatch means
the replay drifted from the code it claims to measure, and fails the
run.
"""

from __future__ import annotations

import statistics

import repro.core.clustering as core_clustering
import repro.core.mapper as core_mapper
import repro.scenario.runner as scenario_runner
import repro.simulator.engines as engines
import repro.simulator.runner as simulator_runner
from repro.core.baselines import IntraProcessorMapper, OriginalMapper
from repro.exec.executor import run_payload, task_payload
from repro.exec.plan import ExperimentTask
from repro.serve.protocol import encode_doc, parse_request, response_doc
from repro.simulator.fast import is_vectorizable
from repro.simulator.serialization import result_from_dict, result_to_dict
from repro.telemetry import get_registry
from repro.workloads.base import Workload

from perfbench.spans import LayerSpans, self_times


def _intra_map(sp: LayerSpans, map_fn):
    """``IntraProcessorMapper.map`` spanned, with the candidates it scored."""

    def spanned(self, *args, **kwargs):
        candidates = get_registry().counter("baselines.intra.candidates")
        with sp("core.baselines.intra") as attrs:
            before = candidates.value
            mapping = map_fn(self, *args, **kwargs)
            attrs["candidates"] = candidates.value - before
        return mapping

    return spanned


def _spanned_engine(sp: LayerSpans, resolve):
    """``resolve_engine`` whose ``simulate`` is spanned with access counts."""

    def resolve_spanned(name=None):
        simulate = resolve(name)

        def spanned(streams, hierarchy, *args, **kwargs):
            with sp("simulator.simulate") as attrs:
                sim = simulate(streams, hierarchy, *args, **kwargs)
                attrs["accesses"] = sim.total_accesses()
                # Memoized on the hierarchy by the engine call above: a lookup.
                attrs["fallback"] = not is_vectorizable(hierarchy)
            return sim

        return spanned

    return resolve_spanned


#: Steps inside the worker that have no public seam, as
#: ``(owner, attribute, layer or wrapper factory[, describe])``; patched
#: only while a replay is traced.  ``run_experiment`` looks its helpers
#: up in ``repro.simulator.runner``; ``run_scenario_payload`` imports
#: ``resolve_engine`` from ``repro.simulator.engines`` at call time.
REPLAY_STEPS = [
    (Workload, "build", "workloads.build"),
    (OriginalMapper, "map", "core.baselines.original"),
    (IntraProcessorMapper, "map", _intra_map),
    (core_mapper.InterProcessorMapper, "map", "core.mapper"),
    (core_mapper, "form_iteration_chunks", "core.chunking",
     lambda chunk_set: {"chunks": chunk_set.num_chunks}),
    (core_mapper, "build_affinity_graph", "core.graph"),
    (core_mapper, "distribute_iterations", "core.clustering"),
    (core_clustering, "balance_clusters", "core.balancing"),
    (core_mapper, "schedule_clients", "core.scheduling"),
    (simulator_runner, "build_client_streams", "simulator.streams"),
    (simulator_runner, "build_client_streams_with_writes", "simulator.streams"),
    (simulator_runner, "resolve_engine", _spanned_engine),
    (engines, "resolve_engine", _spanned_engine),
    (scenario_runner, "_scenario_streams", "scenario.streams"),
]


def replay_task(sp: LayerSpans, task: ExperimentTask, store, registry) -> dict:
    """Store-first execution of one task, as the server's coalescer does it.

    Returns the result document.  ``exec.worker`` is the worker entry
    point plus merging its metrics; its self time is the glue the inner
    steps leave (config decoding, hierarchy and file-system set-up,
    mapping validation, the worker's ``result_to_dict``).
    """
    with sp("exec.store.get") as attrs:
        cached = store.get(task.key)
        attrs["hit"] = cached is not None
    if cached is None:
        payload = task_payload(
            task.workload,
            task.config,
            task.version,
            task.engine_dict(),
            registry.enabled,
            scenario=task.scenario_dict(),
        )
        with sp("exec.worker"):
            out = run_payload(payload)
            if out.get("metrics"):
                registry.merge_snapshot(out["metrics"])
        with sp("exec.serialize"):
            result = result_from_dict(out["result"])
        with sp("exec.store.put"):
            store.put(task.key, result)
    else:
        result = cached
    with sp("exec.serialize"):
        return result_to_dict(result)


def replay_request(sp: LayerSpans, body: bytes, store, registry) -> tuple[ExperimentTask, dict]:
    """One encoded request through protocol, exec and back to a response body."""
    with sp("serve.protocol.parse"):
        task = parse_request(body).to_task()
    doc = replay_task(sp, task, store, registry)
    with sp("serve.protocol.encode"):
        encode_doc(response_doc(task.key, doc))
    return task, doc


#: ``<metric>: layer`` pairs reported as the p50 of the layer's self time.
P50_LAYERS = {
    "core.chunking.ms": "core.chunking",
    "core.graph.ms": "core.graph",
    "core.clustering.ms": "core.clustering",
    "core.balancing.ms": "core.balancing",
    "core.scheduling.ms": "core.scheduling",
    "core.baselines.intra_ms": "core.baselines.intra",
    "workloads.build_ms": "workloads.build",
    "simulator.streams.ms": "simulator.streams",
    "scenario.streams_ms": "scenario.streams",
    "simulator.simulate_ms": "simulator.simulate",
    "exec.store.get_ms": "exec.store.get",
    "exec.store.put_ms": "exec.store.put",
}


def span_metrics(spans) -> dict[str, float]:
    """The per-layer metrics that come straight from replay spans."""
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def p50_ms(layer: str) -> float:
        return 1000.0 * statistics.median(selfs[layer]) if layer in selfs else 0.0

    def mean_attr(layer: str, attr: str) -> float:
        values = [float(s.attrs[attr]) for s in by_name.get(layer, []) if attr in s.attrs]
        return statistics.fmean(values) if values else 0.0

    out = {metric: p50_ms(layer) for metric, layer in P50_LAYERS.items()}
    out["serve.protocol.ms"] = p50_ms("serve.protocol.parse") + p50_ms("serve.protocol.encode")
    out["core.chunking.chunks"] = mean_attr("core.chunking", "chunks")
    out["core.baselines.intra_candidates"] = mean_attr("core.baselines.intra", "candidates")
    sims = by_name.get("simulator.simulate", [])
    sim_s = sum(s.elapsed_s for s in sims)
    out["simulator.accesses_per_s"] = (
        sum(s.attrs["accesses"] for s in sims) / sim_s if sim_s else 0.0
    )
    out["simulator.fallback_frac"] = mean_attr("simulator.simulate", "fallback")
    out["exec.store.hit_frac"] = mean_attr("exec.store.get", "hit")
    return out
