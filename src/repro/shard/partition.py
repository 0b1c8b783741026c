"""The on-disk partition layout and the warm-handoff rebalancer.

A sharded cluster keeps one store *root* with one
:class:`~repro.exec.store.ResultStore` per shard under it::

    <root>/shard-0/<digest[:2]>/<digest>.json
    <root>/shard-1/...
    <root>/shard-2/...

Each worker process owns exactly its partition (reads, writes, gc);
nothing is shared at run time, so workers never contend on files.  The
membership → partition mapping is re-established by :func:`rebalance`:
walk every entry in every partition (including partitions of departed
members), ask the ring who owns its digest now, and ``os.replace`` the
entry file into the owner's partition.  Entry files are self-contained
and content-addressed, which is what makes handoff a rename rather
than a protocol:

* **restart with a different shard count** — the cluster rebalances
  before workers start, so every warm key is already in its new
  owner's partition and serves from cache (zero re-simulation);
* **drain** — the drained shard's worker flushes and exits, its
  partition is rebalanced into the survivors, and parked requests
  re-route onto warm entries.

Moves are atomic per entry (same filesystem, write-then-rename
discipline upstream) and idempotent: a second rebalance against the
same ring moves nothing.
"""

from __future__ import annotations

import os
import pathlib
import re
from typing import Iterator

from repro.shard.ring import HashRing
from repro.util.log import get_logger

__all__ = [
    "SHARD_DIR_RE",
    "partition_dir",
    "partition_ids",
    "rebalance",
    "shard_ids",
]

_LOG = get_logger("shard.partition")

#: Partition directories are the shard id itself: ``shard-<n>``.
SHARD_DIR_RE = re.compile(r"^shard-[0-9]+$")


def shard_ids(count: int) -> list[str]:
    """The canonical ids of an ``count``-shard cluster."""
    if count < 1:
        raise ValueError("shard count must be at least 1")
    return [f"shard-{i}" for i in range(count)]


def partition_dir(root: str | pathlib.Path, shard_id: str) -> pathlib.Path:
    return pathlib.Path(root) / shard_id


def partition_ids(root: str | pathlib.Path) -> list[str]:
    """Shard ids with a partition directory on disk (sorted)."""
    base = pathlib.Path(root)
    if not base.exists():
        return []
    return sorted(
        p.name for p in base.iterdir() if p.is_dir() and SHARD_DIR_RE.match(p.name)
    )


def _partition_entries(
    partition: pathlib.Path,
) -> Iterator[tuple[str, pathlib.Path]]:
    """(digest, path) for every entry file in one partition."""
    for bucket in sorted(partition.iterdir()) if partition.exists() else ():
        if bucket.is_dir() and len(bucket.name) == 2:
            for path in sorted(bucket.glob("*.json")):
                yield path.stem, path


def rebalance(root: str | pathlib.Path, ring: HashRing) -> int:
    """Move every entry to its ring owner's partition; returns moves.

    Covers *all* partitions under ``root`` — members and departed
    shards alike — so the same call serves a resize (entries scatter to
    the new layout) and a drain (the leaver's partition empties into
    the survivors).  Departed partitions are left behind empty; a
    same-digest collision at the destination (both shards simulated the
    key during a partition of the cluster) keeps the destination copy —
    results are content-addressed, the bytes are identical.
    """
    base = pathlib.Path(root)
    moved = 0
    for shard in partition_ids(base):
        for digest, path in _partition_entries(base / shard):
            owner = ring.route(digest)
            if owner == shard:
                continue
            target = base / owner / digest[:2] / path.name
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
            moved += 1
    if moved:
        _LOG.info(
            "rebalanced %d entr%s under %s onto %s",
            moved,
            "y" if moved == 1 else "ies",
            base,
            list(ring.members),
        )
    return moved
