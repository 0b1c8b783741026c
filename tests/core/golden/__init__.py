"""Mapping golden: pinned digests of every mapper's output.

One SHA-256 per (scale, suite workload, mapper version) over what the
mapper decides — the per-client execution order, the Fig. 15 schedule —
plus the nest's dependence distances, which drive the Intra-processor
permutation and tiling search.  Any drift in iteration assignment, order
or tie-breaking changes a digest.

Regenerate with ``PYTHONPATH=src python tests/core/golden/regenerate.py``
only after an *intentional* mapping-semantics change; an unintentional
drift is exactly what the golden exists to catch.
"""

import hashlib
import json
import pathlib

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent
MAPPINGS_PATH = GOLDEN_DIR / "mappings.json"

SCALES = (4, 8)
VERSIONS = ("intra", "inter", "inter+sched")
#: Scale 1 maps each workload at full size, so Stage 1 clusters the
#: most chunks (n in the thousands) and takes the most merge steps; one
#: ``inter`` cell per workload pins that regime without paying for every
#: version.
FULL_SCALE = 1
FULL_SCALE_VERSIONS = ("inter",)


def golden_cells() -> list[tuple[int, str, str]]:
    """Every pinned ``(scale, workload, version)`` cell."""
    from repro.workloads.suite import workload_names

    cells = [(s, w, v) for s in SCALES for w in workload_names() for v in VERSIONS]
    cells += [
        (FULL_SCALE, w, v) for w in workload_names() for v in FULL_SCALE_VERSIONS
    ]
    return cells


def mapping_digest(mapping, distances) -> str:
    """Hex SHA-256 over a mapping's order, schedule and the distances.

    ``client_order`` arrays are hashed as raw int64 bytes in ascending
    client order (each prefixed by its client id and length so block
    boundaries count); ``schedule`` and ``distances`` as canonical JSON.
    """
    from repro.util.fingerprint import canonical_json

    h = hashlib.sha256()
    for client in sorted(mapping.client_order):
        ranks = mapping.client_order[client]
        h.update(f"client {client} {len(ranks)}\n".encode("ascii"))
        h.update(ranks.astype("<i8", copy=False).tobytes())
    schedule = (
        None
        if mapping.schedule is None
        else {str(c): [int(m) for m in ids] for c, ids in sorted(mapping.schedule.items())}
    )
    h.update(canonical_json({"schedule": schedule}).encode("utf-8"))
    dists = [None if d is None else [int(v) for v in d] for d in distances]
    h.update(canonical_json({"distances": dists}).encode("utf-8"))
    return h.hexdigest()


def compute_digest(scale: int, workload: str, version: str, config=None) -> str:
    """Map one suite workload through ``prepare_mapping``, as every run does.

    ``config`` defaults to ``scaled_config(scale)``.
    """
    from repro.experiments.config import scaled_config
    from repro.polyhedral.dependence import find_dependences
    from repro.simulator.runner import prepare_mapping
    from repro.workloads.suite import get_workload

    prepared = prepare_mapping(
        get_workload(workload), config or scaled_config(scale), version
    )
    distances = [d.distance for d in find_dependences(prepared.nest)]
    return mapping_digest(prepared.mapping, distances)


def golden_key(scale: int, workload: str, version: str) -> str:
    return f"scale{scale}/{workload}/{version}"


def load_mappings() -> dict:
    with open(MAPPINGS_PATH, encoding="utf-8") as f:
        return json.load(f)
