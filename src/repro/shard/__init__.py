"""repro.shard — the consistent-hash sharded serving tier.

Scales :mod:`repro.serve` horizontally, the way icarus's
``ShardedCache`` divides one cache interface over hash-routed internal
caches: N worker processes, each a plain
:class:`~repro.serve.server.MappingServer` over its *own* store
partition (``store/shard-<id>/``), behind one front router speaking
exactly the same versioned JSON protocol.  Placement is identity:
requests route on the :class:`~repro.exec.keys.ExperimentKey` digest
through a consistent-hash ring, so a key always lands on the worker
whose partition holds (or will hold) its result — the run-time
decomposition view of the mapping problem, applied to the serving tier
itself.

* :mod:`~repro.shard.ring` — :class:`HashRing`: consistent hashing
  with virtual nodes over the key-digest space; membership changes
  move ~1/N of the keyspace and nothing else;
* :mod:`~repro.shard.partition` — the on-disk partition layout and
  ``rebalance()``: after any membership change, every stored result
  entry is re-homed to its ring owner's partition (the warm-handoff
  path — restarts and resizes never re-simulate a warm key);
* :mod:`~repro.shard.worker` — builds the per-shard
  :class:`~repro.serve.server.MappingServer` (used by the internal
  ``repro shard worker`` entry point);
* :mod:`~repro.shard.router` — :class:`ShardRouter`: routes singles,
  fans out batches shard-by-shard, applies per-shard admission with
  429 + ``Retry-After``, aggregates ``/healthz`` ``/statusz``
  ``/metrics`` cluster-wide (shard-labelled series via the mergeable
  registry snapshots), and parks requests for a draining shard until
  its keys have moved;
* :mod:`~repro.shard.cluster` — :class:`ShardCluster`: spawns the N
  local worker processes, rebalances partitions on startup, drains the
  whole cluster on SIGTERM, and orchestrates single-shard drain (park
  → stop worker → rebalance → reroute) behind ``repro shard drain``.
"""

from repro.shard.partition import (
    partition_dir,
    partition_ids,
    rebalance,
)
from repro.shard.ring import HashRing
from repro.shard.router import SHARD_COUNTERS, ShardRouter
from repro.shard.worker import build_worker

__all__ = [
    "HashRing",
    "ShardRouter",
    "SHARD_COUNTERS",
    "build_worker",
    "partition_dir",
    "partition_ids",
    "rebalance",
]
