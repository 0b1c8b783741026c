"""Per-client chunk-access streams from a mapping.

A client's stream is the sequence of *data chunk ids* its iterations
touch, in execution order: for each assigned iteration (in the mapping's
order) the loop body's references fire in program order.  Streams are
built fully vectorised from the per-iteration chunk matrix (one column
per reference).

Multi-nest mappings (ranks in a :class:`~repro.core.multinest.CombinedNest`
space) are supported: each global rank is located in its source nest and
contributes that nest's reference row.
"""

from __future__ import annotations

import numpy as np

from repro.core.chunking import chunk_matrix_for
from repro.core.mapping import Mapping
from repro.core.multinest import CombinedNest
from repro.polyhedral.arrays import DataSpace
from repro.polyhedral.nest import LoopNest

__all__ = [
    "build_client_streams",
    "build_client_streams_with_writes",
    "coalesce_requests",
]


def coalesce_requests(chunk_rows: np.ndarray) -> np.ndarray:
    """Per-reference run-length coalescing of block requests.

    ``chunk_rows`` is the ``(n, R)`` matrix of chunks touched by one
    client's iterations in execution order.  Each reference streams
    through disk blocks and issues a request to the storage cache system
    only when *its* block changes (the application buffers the current
    block per reference — the MPI-IO/PVFS access model of §5.1; element
    re-touches of the buffered block never reach the caches).  Requests
    of different references interleave in iteration order.
    """
    if chunk_rows.ndim != 2:
        raise ValueError("chunk_rows must be (n, R)")
    if len(chunk_rows) == 0:
        return np.empty(0, dtype=np.int64)
    keep = np.ones(chunk_rows.shape, dtype=bool)
    keep[1:] = chunk_rows[1:] != chunk_rows[:-1]
    # np.nonzero walks row-major: iteration order first, reference order
    # within an iteration — exactly the program's request order.
    return chunk_rows[keep]


def build_client_streams(
    mapping: Mapping,
    nest: LoopNest | CombinedNest,
    data_space: DataSpace,
    chunk_matrix: np.ndarray | None = None,
) -> dict[int, np.ndarray]:
    """Materialise every client's block-request stream.

    Streams contain storage-cache *requests* (the paper's accounting):
    per reference, one request per block transition.

    ``chunk_matrix`` may be passed to reuse the matrix computed during
    chunk formation (single-nest case only).
    """
    if isinstance(nest, CombinedNest):
        if chunk_matrix is not None:
            raise ValueError("chunk_matrix is only meaningful for a single nest")
        return _multi_nest_streams(mapping, nest, data_space)
    if chunk_matrix is None:
        chunk_matrix = chunk_matrix_for(nest, data_space)
    if chunk_matrix.shape[0] != nest.num_iterations:
        raise ValueError("chunk matrix does not match the nest")
    out: dict[int, np.ndarray] = {}
    for c, ranks in mapping.client_order.items():
        rows = chunk_matrix[ranks]
        out[c] = coalesce_requests(rows)
    return out


def _multi_nest_streams(
    mapping: Mapping,
    combined: CombinedNest,
    data_space: DataSpace,
) -> dict[int, np.ndarray]:
    matrices = [chunk_matrix_for(nest, data_space) for nest in combined.nests]

    out: dict[int, np.ndarray] = {}
    for client, ranks in mapping.client_order.items():
        if len(ranks) == 0:
            out[client] = np.empty(0, dtype=np.int64)
            continue
        nest_ids, local = combined.locate(ranks)
        # Split the ordered ranks into maximal same-nest runs; coalescing
        # applies within a run (a reference's buffer is per nest).
        breaks = np.flatnonzero(nest_ids[1:] != nest_ids[:-1]) + 1
        segments = []
        for seg_local, seg_nest in zip(
            np.split(local, breaks), np.split(nest_ids, breaks)
        ):
            rows = matrices[int(seg_nest[0])][seg_local]
            segments.append(coalesce_requests(rows))
        out[client] = np.concatenate(segments)
    return out


def build_client_streams_with_writes(
    mapping: Mapping,
    nest: LoopNest,
    data_space: DataSpace,
    chunk_matrix: np.ndarray | None = None,
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Coalesced request streams plus per-request write masks.

    A request is a write iff the reference that issued it is a write
    reference (write-allocate semantics); used with the engine's
    write-back accounting.  Single-nest mappings only.
    """
    if isinstance(nest, CombinedNest):
        raise ValueError("write masks are supported for single nests only")
    if chunk_matrix is None:
        chunk_matrix = chunk_matrix_for(nest, data_space)
    if chunk_matrix.shape[0] != nest.num_iterations:
        raise ValueError("chunk matrix does not match the nest")
    is_write_col = np.asarray(
        [ref.is_write for ref in nest.references], dtype=bool
    )
    streams: dict[int, np.ndarray] = {}
    masks: dict[int, np.ndarray] = {}
    for c, ranks in mapping.client_order.items():
        rows = chunk_matrix[ranks]
        if len(rows) == 0:
            streams[c] = np.empty(0, dtype=np.int64)
            masks[c] = np.empty(0, dtype=bool)
            continue
        keep = np.ones(rows.shape, dtype=bool)
        keep[1:] = rows[1:] != rows[:-1]
        streams[c] = rows[keep]
        # Broadcast the per-reference write flag to every kept request.
        masks[c] = np.broadcast_to(is_write_col, rows.shape)[keep]
    return streams, masks
