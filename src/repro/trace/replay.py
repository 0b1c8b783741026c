"""Trace record/replay: workload artifacts that skip the mapping stage.

Mapping (chunking, affinity clustering, Fig. 15 scheduling) dominates
experiment cost; the simulation itself is cheap.  A
:class:`TraceArtifact` freezes the mapping stage's output — per-client
request streams, write masks, iteration counts, the config fingerprint —
into a versioned single-file ``.npz`` artifact, and :func:`replay`
re-simulates it against any hierarchy/latency/prefetch configuration.
That decouples the expensive mapping from cheap re-simulation, enabling
fast what-if sweeps over cache sizes and policies (the trace-driven
methodology of the related graph-layout work in PAPERS.md).

Round-trip guarantee: replaying an artifact under its recorded config
reproduces the direct :func:`repro.simulator.runner.run_experiment`
result exactly, by construction: both paths take their inputs from
:func:`prepare_experiment` and simulate them through the one
:func:`~repro.simulator.runner.simulate_streams`, which builds the same
machine from the same config, and the engine resets all state up front.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field, replace

import numpy as np

from repro.experiments.config import DEFAULT_CONFIG, SystemConfig
from repro.simulator.metrics import SimulationResult
from repro.simulator.runner import prepare_experiment, simulate_streams
from repro.storage.filesystem import ParallelFileSystem
from repro.util.fingerprint import config_fingerprint, config_from_fingerprint
from repro.workloads.suite import get_workload

__all__ = [
    "TRACE_ARTIFACT_VERSION",
    "TraceArtifact",
    "record",
    "save_artifact",
    "load_artifact",
    "replay",
    "with_cache_overrides",
]

#: Bump when the artifact layout changes; readers reject newer files.
TRACE_ARTIFACT_VERSION = 1

_STREAM_PREFIX = "stream_"
_MASK_PREFIX = "mask_"


@dataclass
class TraceArtifact:
    """A recorded workload: simulator inputs with the mapping stage done."""

    streams: dict[int, np.ndarray]
    write_masks: dict[int, np.ndarray] | None
    iterations_per_client: dict[int, int]
    num_data_chunks: int
    prefetch_degree: int
    config: SystemConfig
    workload: str = ""
    mapper_version: str = ""
    sync_counts: dict[int, int] | None = None
    format_version: int = field(default=TRACE_ARTIFACT_VERSION)

    @property
    def num_clients(self) -> int:
        return len(self.streams)

    def total_requests(self) -> int:
        return sum(len(s) for s in self.streams.values())

    def fingerprint(self) -> dict:
        """The recorded configuration as a JSON-safe dict."""
        return config_fingerprint(self.config)

    def __repr__(self) -> str:
        return (
            f"TraceArtifact({self.workload}/{self.mapper_version}, "
            f"clients={self.num_clients}, requests={self.total_requests()}, "
            f"format=v{self.format_version})"
        )


def record(
    workload_name: str,
    config: SystemConfig | None = None,
    version: str = "inter+sched",
    sync_counts: dict[int, int] | None = None,
) -> TraceArtifact:
    """Run the mapping stage once and freeze the simulator inputs."""
    config = config or DEFAULT_CONFIG
    workload = get_workload(workload_name)
    prep = prepare_experiment(workload, config, version)
    return TraceArtifact(
        streams=prep.streams,
        write_masks=prep.write_masks,
        iterations_per_client=prep.iterations_per_client,
        num_data_chunks=prep.num_data_chunks,
        prefetch_degree=config.prefetch_degree,
        config=config,
        workload=prep.workload,
        mapper_version=prep.version,
        sync_counts=sync_counts,
    )


# -- (de)serialisation --------------------------------------------------------------


def save_artifact(path: str | pathlib.Path, artifact: TraceArtifact) -> None:
    """Write one artifact as a compressed ``.npz`` (arrays + JSON metadata)."""
    meta = {
        "record": "repro-trace-artifact",
        "format_version": artifact.format_version,
        "workload": artifact.workload,
        "mapper_version": artifact.mapper_version,
        "num_data_chunks": artifact.num_data_chunks,
        "prefetch_degree": artifact.prefetch_degree,
        "iterations_per_client": {
            str(c): int(n) for c, n in artifact.iterations_per_client.items()
        },
        "sync_counts": (
            {str(c): int(n) for c, n in artifact.sync_counts.items()}
            if artifact.sync_counts is not None
            else None
        ),
        "config": artifact.fingerprint(),
    }
    arrays: dict[str, np.ndarray] = {
        f"{_STREAM_PREFIX}{c}": np.asarray(s, dtype=np.int64)
        for c, s in artifact.streams.items()
    }
    if artifact.write_masks is not None:
        for c, m in artifact.write_masks.items():
            arrays[f"{_MASK_PREFIX}{c}"] = np.asarray(m, dtype=bool)
    with open(path, "wb") as f:
        np.savez_compressed(f, meta=np.array(json.dumps(meta)), **arrays)


def load_artifact(path: str | pathlib.Path) -> TraceArtifact:
    """Load an artifact written by :func:`save_artifact` (version-checked)."""
    with np.load(path, allow_pickle=False) as data:
        if "meta" not in data.files:
            raise ValueError(f"{path}: not a repro trace artifact (no metadata)")
        meta = json.loads(str(data["meta"]))
        if meta.get("record") != "repro-trace-artifact":
            raise ValueError(f"{path}: not a repro trace artifact")
        version = meta.get("format_version")
        if not isinstance(version, int) or version > TRACE_ARTIFACT_VERSION:
            raise ValueError(
                f"{path}: artifact format v{version} is newer than this "
                f"build's v{TRACE_ARTIFACT_VERSION}"
            )
        streams: dict[int, np.ndarray] = {}
        masks: dict[int, np.ndarray] = {}
        for key in data.files:
            if key.startswith(_STREAM_PREFIX):
                streams[int(key[len(_STREAM_PREFIX) :])] = data[key]
            elif key.startswith(_MASK_PREFIX):
                masks[int(key[len(_MASK_PREFIX) :])] = data[key]
    sync = meta.get("sync_counts")
    return TraceArtifact(
        streams=streams,
        write_masks=masks or None,
        iterations_per_client={
            int(c): n for c, n in meta["iterations_per_client"].items()
        },
        num_data_chunks=meta["num_data_chunks"],
        prefetch_degree=meta["prefetch_degree"],
        config=config_from_fingerprint(meta["config"]),
        workload=meta["workload"],
        mapper_version=meta["mapper_version"],
        sync_counts={int(c): n for c, n in sync.items()} if sync else None,
        format_version=version,
    )


# -- replay -------------------------------------------------------------------------


def replay(
    artifact: TraceArtifact | str | pathlib.Path,
    *,
    config: SystemConfig | None = None,
    hierarchy=None,
    filesystem: ParallelFileSystem | None = None,
    prefetch_degree: int | None = None,
    recorder=None,
    engine: str | None = None,
) -> SimulationResult:
    """Re-simulate a recorded workload without re-running the mapping.

    With no overrides the recorded configuration is reproduced exactly.
    Pass ``config`` (or a ``prefetch_degree`` override) for what-if
    sweeps over cache sizes, policies, latencies or prefetching — the
    recorded streams stay fixed, only the machine under them changes.
    ``hierarchy`` / ``filesystem`` run on a caller-built machine whose
    state the caller inspects afterwards.  ``engine`` selects the
    simulation engine (``reference``/``fast``); ``None`` uses the
    process default.
    """
    if not isinstance(artifact, TraceArtifact):
        artifact = load_artifact(artifact)
    if prefetch_degree is None and config is None:
        prefetch_degree = artifact.prefetch_degree
    return simulate_streams(
        artifact.streams,
        config or artifact.config,
        write_masks=artifact.write_masks,
        iterations_per_client=artifact.iterations_per_client,
        sync_counts=artifact.sync_counts,
        num_data_chunks=artifact.num_data_chunks,
        recorder=recorder,
        engine=engine,
        hierarchy=hierarchy,
        filesystem=filesystem,
        prefetch_degree=prefetch_degree,
    )


def with_cache_overrides(
    artifact: TraceArtifact,
    cache_elems: tuple[int, int, int] | None = None,
    policy: str | None = None,
) -> SystemConfig:
    """The artifact's config with what-if cache overrides applied."""
    cfg = artifact.config
    if cache_elems is not None:
        cfg = replace(cfg, cache_elems=tuple(cache_elems))
    if policy is not None:
        cfg = replace(cfg, policy=policy)
    return cfg
