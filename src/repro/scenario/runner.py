"""Turning scenario specs into keyed, cached, executable experiments.

Identity design, per kind:

* ``workload`` scenarios delegate *entirely* to the plain experiment
  key — same workload name, same mapper version, no scenario engine
  options — so a registry run and a legacy ``run_experiment`` call hit
  the same cache entry and return identical results.
* Generator and trace scenarios have no suite workload; they key as
  ``workload="scenario:<name>"``, ``version=<kind>``, with the resolved
  spec fingerprint folded into the engine options.  Trace fingerprints
  embed the file's content SHA-256, so editing a trace file changes
  the key rather than aliasing stale cached results.

Per-level policies (spec ``policies``) apply onto the config *before*
keying, so two scenarios differing only in their policy matrix map to
distinct :class:`~repro.exec.keys.ExperimentKey` digests through the
config fingerprint.

Execution goes through :func:`repro.exec.plan.execute_plan` — store
lookups, process-pool fan-out, write-back — which is what makes a
warm-cache scenario re-run simulate nothing.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.scenario.registry import resolve_scenario
from repro.scenario.spec import ScenarioSpec, spec_fingerprint
from repro.scenario.stochastic import onoff_streams, zipf_streams
from repro.scenario.traces import ingest_trace, trace_sha256
from repro.util.fingerprint import canonical_json

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.keys import ExperimentKey
    from repro.exec.plan import SweepPlan
    from repro.experiments.config import SystemConfig
    from repro.simulator.metrics import ExperimentResult

__all__ = [
    "effective_config",
    "resolved_fingerprint",
    "scenario_identity",
    "scenario_key",
    "add_to_plan",
    "run_scenario",
    "run_scenario_payload",
    "result_digest",
]

#: Default mapper version for workload-kind scenarios (the paper's best).
DEFAULT_WORKLOAD_VERSION = "inter+sched"


def effective_config(spec: ScenarioSpec, config: "SystemConfig") -> "SystemConfig":
    """Apply the spec's per-level policy matrix onto the config."""
    if spec.policies is None:
        return config
    return config.with_policies(*spec.policies)


def resolved_fingerprint(spec: ScenarioSpec) -> dict[str, Any]:
    """The spec fingerprint with external content pinned.

    For trace scenarios the trace file's SHA-256 is computed and folded
    in as ``params.content_sha256``; a user-pinned ``sha256`` param is
    verified against it here, before any key is derived.
    """
    doc = spec_fingerprint(spec)
    if spec.kind == "trace":
        digest = trace_sha256(spec.params["path"])
        pinned = spec.params.get("sha256")
        if pinned is not None and pinned != digest:
            raise ValueError(
                f"trace {spec.params['path']!r} content sha256 {digest} does "
                f"not match the spec's pinned sha256 {pinned}"
            )
        doc["params"]["content_sha256"] = digest
    return doc


def scenario_identity(
    spec: ScenarioSpec, version: str | None = None
) -> tuple[str, str, dict[str, Any] | None]:
    """The (workload, version, scenario fingerprint) naming a spec run."""
    if spec.kind == "workload":
        v = version or spec.params.get("version", DEFAULT_WORKLOAD_VERSION)
        return spec.params["workload"], v, None
    return f"scenario:{spec.name}", spec.kind, resolved_fingerprint(spec)


def scenario_key(
    spec: ScenarioSpec, config: "SystemConfig", version: str | None = None
) -> "ExperimentKey":
    """The experiment key a scenario run is cached under."""
    from repro.exec.keys import experiment_key

    workload, v, scenario = scenario_identity(spec, version)
    return experiment_key(
        workload, effective_config(spec, config), v, scenario=scenario
    )


def add_to_plan(
    plan: "SweepPlan",
    spec: ScenarioSpec,
    config: "SystemConfig",
    version: str | None = None,
) -> "ExperimentKey":
    """Add one scenario run to a sweep plan; returns its key."""
    workload, v, scenario = scenario_identity(spec, version)
    return plan.add(
        workload, effective_config(spec, config), v, scenario=scenario
    )


def run_scenario(
    scenario: str | Mapping[str, Any] | ScenarioSpec,
    config: "SystemConfig",
    version: str | None = None,
) -> "ExperimentResult":
    """Resolve, key, and execute one scenario through the exec runtime.

    The active execution context (:func:`repro.exec.use_execution`)
    supplies the executor and the result store.
    """
    from repro.exec.plan import SweepPlan, execute_plan

    spec = resolve_scenario(scenario)
    spec.deep_validate()
    plan = SweepPlan()
    key = add_to_plan(plan, spec, config, version)
    return execute_plan(plan)[key.digest]


# -- worker side --------------------------------------------------------------------


def _scenario_streams(
    kind: str, params: Mapping[str, Any], config: "SystemConfig"
) -> tuple[dict[int, np.ndarray], int]:
    """Build the per-client streams a resolved fingerprint describes.

    Returns ``(streams, num_data_chunks)``.  Streams always cover
    clients ``0..num_clients-1`` (trace clients beyond the trace get
    empty streams), matching the engine's contract.
    """
    if kind == "zipf":
        num_chunks = params.get("num_chunks") or config.data_chunks
        streams = zipf_streams(
            num_clients=config.num_clients,
            num_chunks=num_chunks,
            requests_per_client=params.get("requests_per_client", 4096),
            alpha=params.get("alpha", 0.8),
            seed=config.seed,
        )
        return streams, num_chunks
    if kind == "onoff":
        num_chunks = params.get("num_chunks") or config.data_chunks
        streams = onoff_streams(
            num_clients=config.num_clients,
            num_chunks=num_chunks,
            requests_per_client=params.get("requests_per_client", 4096),
            burst_len=params.get("burst_len", 64),
            gap_len=params.get("gap_len", 16),
            hot_chunks=params.get("hot_chunks"),
            seed=config.seed,
        )
        return streams, num_chunks
    if kind == "trace":
        path = params["path"]
        digest = trace_sha256(path)
        pinned = params.get("content_sha256")
        if pinned is not None and digest != pinned:
            raise ValueError(
                f"trace {path!r} changed since it was keyed: content sha256 "
                f"{digest} != fingerprinted {pinned}"
            )
        streams = ingest_trace(path, params.get("format"))
        if len(streams) > config.num_clients:
            raise ValueError(
                f"trace has {len(streams)} clients but the config models "
                f"only {config.num_clients}"
            )
        for c in range(config.num_clients):
            streams.setdefault(c, np.empty(0, dtype=np.int64))
        num_chunks = 1 + max(
            (int(s.max()) for s in streams.values() if len(s)), default=0
        )
        return streams, num_chunks
    raise ValueError(f"kind {kind!r} has no stream generator")


def run_scenario_payload(
    payload: Mapping[str, Any], config: "SystemConfig"
) -> "ExperimentResult":
    """Worker entry point for scenario payloads (non-workload kinds).

    Called by :func:`repro.exec.executor.run_payload` when a payload
    carries a ``scenario`` fingerprint; the mapping stage is skipped —
    streams come from the generator or trace the fingerprint names —
    and :func:`~repro.simulator.runner.simulate_streams` simulates them
    on the config's machine.
    """
    from repro.simulator.metrics import ExperimentResult
    from repro.simulator.runner import simulate_streams
    from repro.telemetry import phase

    scen = payload["scenario"]
    kind = scen["kind"]
    params = scen.get("params") or {}
    with phase("scenario_streams"):
        streams, num_chunks = _scenario_streams(kind, params, config)
    sim = simulate_streams(
        streams,
        config,
        num_data_chunks=num_chunks,
        engine=(payload.get("engine") or {}).get("engine"),
    )
    return ExperimentResult(
        workload=payload["workload"],
        version=payload["version"],
        sim=sim,
        mapping_time_s=0.0,
        extra={"scenario": scen.get("name"), "kind": kind},
    )


def result_digest(result: "ExperimentResult") -> str:
    """Hex SHA-256 of the per-level access/hit/miss counts.

    The pinnable determinism witness ``repro scenario run`` prints and
    ``tests/integration/test_cli_smoke.py`` pins: identical specs + seeds must
    reproduce identical per-level counters, bit for bit.
    """
    doc = {
        level: {"accesses": st.accesses, "hits": st.hits, "misses": st.misses}
        for level, st in result.sim.level_stats.items()
    }
    material = canonical_json(doc)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()
