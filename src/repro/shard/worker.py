"""Building one shard worker: the serve app over its store partition.

A shard worker *is* a :class:`~repro.serve.server.MappingServer` — same
protocol, same coalescer, same drain — with three shard-specific
bindings:

* its :class:`~repro.exec.store.ResultStore` roots at the shard's own
  partition (``<root>/<shard-id>/``), which the rebalancer keeps in
  sync with ring ownership;
* ``shard_id`` is stamped on every response (``X-Repro-Shard``) and
  into ``/statusz`` / ``/metricsz``, so the router can attribute
  cluster-wide aggregates;
* it always gets a live registry (the router aggregates ``/metricsz``
  snapshots; a worker without metrics would be a hole in the cluster
  view).

``repro shard worker`` (the internal entry point the cluster spawns,
one process per shard) is a thin argparse shim over
:func:`build_worker`; tests drive the same factory in threads.
"""

from __future__ import annotations

import pathlib

from repro.shard.partition import partition_dir

__all__ = ["build_worker"]


def build_worker(
    shard_id: str,
    root: str | pathlib.Path,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 1,
    max_queue: int = 64,
    max_batch: int = 8,
    request_timeout_s: float = 300.0,
    default_scale: int = 0,
    cache_max_bytes: int | None = None,
):
    """The configured :class:`~repro.serve.server.MappingServer` for one shard."""
    from repro.exec import ExperimentExecutor, ResultStore
    from repro.serve import MappingServer
    from repro.telemetry import MetricsRegistry, declare_pipeline_metrics

    if not shard_id:
        raise ValueError("shard worker needs a shard id")
    executor = ExperimentExecutor(workers=workers) if workers > 1 else None
    store = ResultStore(
        partition_dir(root, shard_id), size_cap_bytes=cache_max_bytes
    )
    registry = MetricsRegistry()
    declare_pipeline_metrics(registry)
    return MappingServer(
        host=host,
        port=port,
        executor=executor,
        store=store,
        registry=registry,
        max_queue=max_queue,
        max_batch=max_batch,
        request_timeout_s=request_timeout_s,
        default_scale=default_scale,
        shard_id=shard_id,
    )
