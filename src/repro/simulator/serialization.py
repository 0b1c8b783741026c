"""Serialization of streams and experiment results.

Request traces save to ``.npz`` (compact, loss-free) so expensive stream
generation can be cached or shipped to other tools; experiment results
export to plain dictionaries / JSON for the harness and notebooks.

The dict form is loss-free for the metrics the paper reports:
``result_from_dict(result_to_dict(r))`` reproduces every per-client
timing array bit-for-bit (Python's JSON float serialisation round-trips
IEEE doubles exactly), which is what lets the :mod:`repro.exec` result
store hand back cached results indistinguishable from fresh ones.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

import numpy as np

from repro.hierarchy.stats import CacheStats
from repro.simulator.metrics import ExperimentResult, SimulationResult

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "save_results_json",
]


def _sim_to_dict(sim: SimulationResult) -> dict[str, Any]:
    return {
        "per_client_io_ms": sim.per_client_io_ms.tolist(),
        "per_client_compute_ms": sim.per_client_compute_ms.tolist(),
        "per_client_sync_ms": sim.per_client_sync_ms.tolist(),
        "levels": {
            name: st.as_dict() for name, st in sim.level_stats.items()
        },
        "disk_reads": sim.disk_reads,
        "disk_writes": sim.disk_writes,
        "disk_busy_ms": sim.disk_busy_ms,
        "io_latency_ms": sim.io_latency_ms,
        "execution_time_ms": sim.execution_time_ms,
    }


def result_to_dict(result: ExperimentResult) -> dict[str, Any]:
    """Flatten one experiment result into a JSON-safe dictionary."""
    return {
        "workload": result.workload,
        "version": result.version,
        "mapping_time_s": result.mapping_time_s,
        "extra": dict(result.extra),
        "sim": _sim_to_dict(result.sim),
    }


def _sim_from_dict(d: dict[str, Any]) -> SimulationResult:
    return SimulationResult(
        per_client_io_ms=np.asarray(d["per_client_io_ms"], dtype=np.float64),
        per_client_compute_ms=np.asarray(
            d["per_client_compute_ms"], dtype=np.float64
        ),
        per_client_sync_ms=np.asarray(d["per_client_sync_ms"], dtype=np.float64),
        level_stats={
            name: CacheStats(**counters) for name, counters in d["levels"].items()
        },
        disk_reads=int(d["disk_reads"]),
        disk_busy_ms=float(d["disk_busy_ms"]),
        disk_writes=int(d.get("disk_writes", 0)),
    )


def result_from_dict(d: dict[str, Any]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_dict` output.

    The inverse of :func:`result_to_dict` for everything that function
    captures; ``extra`` must be JSON-safe (attached live objects like
    trace recorders do not survive the round trip).
    """
    return ExperimentResult(
        workload=d["workload"],
        version=d["version"],
        sim=_sim_from_dict(d["sim"]),
        mapping_time_s=float(d.get("mapping_time_s", 0.0)),
        extra=dict(d.get("extra", {})),
    )


def save_results_json(
    path: str | pathlib.Path,
    results: dict[str, dict[str, ExperimentResult]],
) -> None:
    """Save a ``run_suite``-shaped result tree as JSON."""
    payload = {
        workload: {v: result_to_dict(r) for v, r in per_version.items()}
        for workload, per_version in results.items()
    }
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")
