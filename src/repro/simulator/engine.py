"""The interleaved multi-client simulation engine.

Clients execute concurrently: the engine processes accesses in global
round-robin order (round t serves the t-th access of every client that
still has one), so streams of clients sharing an L2/L3 cache interleave
there — exactly the destructive/constructive interference the paper's
mapping manipulates.

One access walks the client's cache path (L1 → L2 → L3); the first hit
stops the walk, a full miss is served by the striped file system and the
chunk is filled into every cache on the path (inclusive hierarchy, as a
read through every layer leaves a copy in each cache — the Blue Gene/P
forwarding model of §5.1).  Per-client I/O time accumulates the latency
of every level touched plus disk time; compute time adds a fixed cost
per iteration; cross-client dependences charge a synchronisation stall
each (§5.4).

:func:`simulate` is the one entry point of both engines; only the access
core differs: :func:`_access_loop` here, or the level-by-level passes of
:mod:`repro.simulator.fast`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hierarchy.topology import CacheHierarchy
from repro.simulator import fast
from repro.simulator.engines import _check_name
from repro.simulator.metrics import SimulationResult
from repro.storage.filesystem import ParallelFileSystem
from repro.telemetry import get_registry

__all__ = ["LatencyModel", "simulate", "interleave_order"]


@dataclass(frozen=True)
class LatencyModel:
    """Access latencies in milliseconds.

    ``level_ms[k]`` is the cost of probing the k-th cache on a client's
    path (L1 local memory, L2 across the tree network, L3 at the storage
    node).  A hit at level k costs ``sum(level_ms[:k+1])``; a full miss
    additionally pays the disk.  Defaults give the classic three order-of
    magnitude spread between local memory and a 10k RPM disk.
    """

    level_ms: tuple[float, ...] = (0.005, 0.12, 0.35)
    sync_stall_ms: float = 0.5
    compute_ms_per_iteration: float = 0.02

    def __post_init__(self):
        if not self.level_ms:
            raise ValueError("need at least one cache level latency")
        if any(l < 0 for l in self.level_ms):
            raise ValueError("latencies must be non-negative")
        if self.sync_stall_ms < 0 or self.compute_ms_per_iteration < 0:
            raise ValueError("latencies must be non-negative")

    def hit_cost(self, level: int) -> float:
        """Cumulative cost of a hit at cache level ``level`` (0-based)."""
        return float(sum(self.level_ms[: level + 1]))


def interleave_order(lengths: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Global round-robin order over per-client streams.

    Returns ``(clients, positions)``: the client and its stream position
    served at each global step, ordered by (round, client id).
    """
    if not lengths:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    rounds = np.concatenate(
        [np.arange(n, dtype=np.int64) for n in lengths]
    )
    clients = np.concatenate(
        [np.full(n, c, dtype=np.int64) for c, n in enumerate(lengths)]
    )
    order = np.lexsort((clients, rounds))
    return clients[order], rounds[order]


#: Memoized interleave orders keyed by the per-client length tuple —
#: benchmark loops and parameter sweeps replay identical shapes.
_interleave_memo: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}


def _interleave(lengths: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Memoized :func:`interleave_order`."""
    key = tuple(lengths)
    got = _interleave_memo.get(key)
    if got is None:
        if len(_interleave_memo) >= 64:
            _interleave_memo.clear()
        got = _interleave_memo[key] = interleave_order(lengths)
    return got


def simulate(
    streams: dict[int, np.ndarray],
    hierarchy: CacheHierarchy,
    filesystem: ParallelFileSystem,
    latency: LatencyModel | None = None,
    sync_counts: dict[int, int] | None = None,
    iterations_per_client: dict[int, int] | None = None,
    write_masks: dict[int, np.ndarray] | None = None,
    prefetch_degree: int = 0,
    num_data_chunks: int | None = None,
    recorder=None,
    engine: str = "reference",
) -> SimulationResult:
    """Run the interleaved simulation; caches/disks are reset first.

    Parameters
    ----------
    streams:
        Per-client chunk-access streams (client ids must be 0..k-1,
        chunk ids non-negative).
    sync_counts:
        Optional per-client inter-processor synchronisation counts; each
        charges :attr:`LatencyModel.sync_stall_ms` of stall.  Keys must
        be client ids in 0..k-1, as for ``iterations_per_client``.
    iterations_per_client:
        Optional per-client iteration counts; each iteration charges
        :attr:`LatencyModel.compute_ms_per_iteration`.  A client without
        an entry (and every client when it is omitted) has compute time 0.
    write_masks:
        Optional per-client boolean vectors (aligned with ``streams``,
        one for every client, empty ones included) marking write
        requests.  Enables write-back accounting: a write
        dirties the chunk in the private cache; evicting a dirty chunk
        propagates the dirt down the path and, past the last level,
        pays a disk write (charged to the client whose fill triggered
        the eviction — a deliberate simplification).
    prefetch_degree:
        Sequential prefetch at the storage-node caches: a disk read of
        chunk ``c`` also stages the next ``prefetch_degree`` chunks of
        the same disk into the bottom cache, charging the disk but not
        the client (asynchronous read-ahead, cf. the related work's
        sequential prefetchers).
    num_data_chunks:
        Upper bound for prefetch targets (the data space size); without
        it the prefetcher stops at the largest chunk id seen in the
        streams.
    recorder:
        Optional :class:`repro.trace.recorder.TraceRecorder` receiving
        one event per access/fill/evict/prefetch/write-back/sync.
        ``None`` (default) and recorders whose ``enabled`` attribute is
        false are detected once up front, so tracing adds no work to the
        hot loop when disabled.
    engine:
        The access core: ``reference`` (:func:`_access_loop`, the ground
        truth) or ``fast`` (:func:`repro.simulator.fast._level_pass`,
        bit-identical and several times faster); all else is shared.

    Whole-run fallback: a ``fast`` run with an enabled recorder, or with
    a level whose policy type subclasses (is not exactly) one of the four
    vectorized classes and so may keep different internals, takes the
    reference loop, whole: same inputs, same objects, same result.
    """
    latency = latency or LatencyModel()
    k = hierarchy.num_clients
    _check_name(engine)
    ids = sorted(streams)
    if ids != list(range(k)):
        raise ValueError(f"streams must cover clients 0..{k - 1}, got {ids}")
    num_levels = hierarchy.num_levels
    if len(latency.level_ms) != num_levels:
        raise ValueError(
            f"latency model has {len(latency.level_ms)} levels, hierarchy has {num_levels}"
        )
    if prefetch_degree < 0:
        raise ValueError("prefetch_degree must be non-negative")
    for name, per_client in (
        ("sync_counts", sync_counts),
        ("iterations_per_client", iterations_per_client),
    ):
        bad = sorted(c for c in per_client or () if not 0 <= c < k)
        if bad:
            raise ValueError(f"{name} names clients {bad} outside 0..{k - 1}")
    if write_masks is not None:
        for c in range(k):
            if c not in write_masks or len(write_masks[c]) != len(streams[c]):
                raise ValueError(f"write mask of client {c} missing or misaligned")
    lengths = [len(streams[c]) for c in range(k)]
    concat = None
    if any(lengths):
        concat = np.concatenate(
            [np.asarray(streams[c], dtype=np.int64) for c in range(k)]
        )
        if int(concat.min()) < 0:
            raise ValueError("chunk ids must be non-negative")
    # A disabled recorder (None or enabled=False) is normalised to None
    # here, outside the hot loop.
    rec = recorder if recorder is not None and getattr(recorder, "enabled", True) else None
    # The memoized topology: every cache sits on some client's path, so
    # resetting its caches is ``hierarchy.reset()`` without the walk.
    static = fast._static(hierarchy)
    for cache in static["caches"]:
        cache.reset()
    filesystem.reset()

    hit_cost = [latency.hit_cost(l) for l in range(num_levels)]
    # The prefetch bound comes from the declared data-space size when the
    # caller provides it (every production caller does); the fallback
    # scan over the streams runs only when prefetching will actually
    # consult the bound — never as a silent per-call tax.
    if num_data_chunks is not None:
        max_chunk = num_data_chunks - 1
    elif prefetch_degree:
        max_chunk = max(
            (int(s.max()) for s in streams.values() if len(s)), default=0
        )
    else:
        max_chunk = 0  # never consulted without prefetching
    client_arr, pos_arr = _interleave(lengths)

    if engine == "fast" and rec is None and static["vectorizable"]:
        io = [0.0] * k if concat is None else fast._level_pass(
            static, filesystem, hit_cost, concat, lengths, client_arr, pos_arr,
            write_masks, prefetch_degree, max_chunk,
        )
        io_ms = np.asarray(io, dtype=np.float64)
    else:
        io_ms = _access_loop(
            streams, hierarchy, filesystem, hit_cost, client_arr, pos_arr,
            write_masks, prefetch_degree, max_chunk, rec,
        )

    # Compute time: per-iteration cost.
    compute_ms = np.zeros(k, dtype=np.float64)
    if iterations_per_client:
        for c, n in iterations_per_client.items():
            compute_ms[c] = n * latency.compute_ms_per_iteration

    sync_ms = np.zeros(k, dtype=np.float64)
    if sync_counts:
        for c, n in sync_counts.items():
            sync_ms[c] = n * latency.sync_stall_ms
            if rec is not None and n:
                rec.sync(c, n, float(sync_ms[c]))

    level_stats = {}
    for name, group in zip(hierarchy.level_names(), static["level_caches"]):
        agg = None
        for cache in group:
            agg = cache.stats if agg is None else agg.merge(cache.stats)
        level_stats[name] = agg

    # Telemetry bridging happens once, here, never in the hot loop: the
    # per-level aggregates and disk totals mirror into the registry only
    # when one is active.
    reg = get_registry()
    if reg.enabled:
        reg.counter("simulator.simulations").inc()
        for name, agg in level_stats.items():
            if agg is not None:
                agg.publish(reg, level=name)
        reg.counter("disk.reads").inc(filesystem.total_disk_reads())
        reg.counter("disk.writes").inc(filesystem.total_disk_writes())
        reg.gauge("disk.busy_ms").set(filesystem.total_busy_ms())
        io_hist = reg.histogram("sim.client_io_ms")
        for x in io_ms:
            io_hist.observe(float(x))

    return SimulationResult(
        per_client_io_ms=io_ms,
        per_client_compute_ms=compute_ms,
        per_client_sync_ms=sync_ms,
        level_stats=level_stats,
        disk_reads=filesystem.total_disk_reads(),
        disk_busy_ms=filesystem.total_busy_ms(),
        disk_writes=filesystem.total_disk_writes(),
    )


def _access_loop(
    streams, hierarchy, filesystem, hit_cost, client_arr, pos_arr, write_masks,
    prefetch_degree, max_chunk, rec,
) -> np.ndarray:
    """The reference access core: each access walks its client's path.
    Returns the per-client I/O times; the statistics stay on the caches."""
    k = hierarchy.num_clients
    paths = [hierarchy.path(c) for c in range(k)]
    num_levels = len(hit_cost)
    miss_base = hit_cost[-1]  # all levels probed before going to disk
    stride = filesystem.num_storage_nodes  # next block on the same disk
    # Python-level hot loop: pre-extract to lists for speed.
    stream_lists = [streams[c].tolist() for c in range(k)]
    mask_lists = (
        [list(map(bool, write_masks[c])) for c in range(k)]
        if write_masks is not None
        else None
    )
    io_ms = np.zeros(k, dtype=np.float64)
    # Dirty chunk sets, one per cache object (write-back bookkeeping).
    dirty: dict[int, set] = {}
    if mask_lists is not None:
        for c in range(k):
            for cache in paths[c]:
                dirty.setdefault(id(cache), set())

    step = 0  # global access index, stamped on trace events

    def evict_writeback(c: int, level: int, victim: int) -> None:
        """Propagate a dirty eviction down the path from ``level``."""
        path = paths[c]
        cache_dirty = dirty[id(path[level])]
        if victim not in cache_dirty:
            return
        cache_dirty.discard(victim)
        for lower in range(level + 1, num_levels):
            lower_cache = path[lower]
            if lower_cache.contains(victim):
                dirty[id(lower_cache)].add(victim)
                return
        path[level].stats.record_writeback()
        wb_ms = filesystem.write_chunk(victim)
        io_ms[c] += wb_ms
        if rec is not None:
            rec.writeback(step, c, victim, wb_ms)

    def is_dirty(cache, victim: int) -> bool:
        return mask_lists is not None and victim in dirty[id(cache)]

    fs_read = filesystem.read_chunk
    seen: set = set()
    for c, p in zip(client_arr.tolist(), pos_arr.tolist()):
        chunk = stream_lists[c][p]
        cold = chunk not in seen
        if cold:
            seen.add(chunk)
        path = paths[c]
        level = 0
        hit_level = -1
        for cache in path:
            if cache.lookup(chunk, cold=cold):
                hit_level = level
                break
            level += 1
        if hit_level >= 0:
            cost = hit_cost[hit_level]
            fill_to = hit_level
        else:
            cost = miss_base + fs_read(chunk)
            fill_to = num_levels
        io_ms[c] += cost
        if rec is not None:
            rec.access(
                step, c, chunk, hit_level, cost,
                mask_lists is not None and mask_lists[c][p], cold,
            )
        if hit_level < 0 and prefetch_degree:
            bottom = path[-1]
            for ahead in range(1, prefetch_degree + 1):
                nxt = chunk + ahead * stride
                if nxt > max_chunk or bottom.contains(nxt):
                    continue
                filesystem.read_chunk(nxt)  # disk busy, no client stall
                if rec is not None:
                    rec.prefetch(step, c, bottom.name, nxt)
                victim = bottom.fill(nxt)
                if victim is not None:
                    if rec is not None:
                        rec.evict(
                            step, c, bottom.name, num_levels - 1, victim,
                            is_dirty(bottom, victim),
                        )
                    if mask_lists is not None:
                        evict_writeback(c, num_levels - 1, victim)
        # Inclusive fill of every level that missed.
        for l in range(fill_to):
            cache = path[l]
            victim = cache.fill(chunk)
            if rec is not None:
                rec.fill(step, c, cache.name, l, chunk)
                if victim is not None:
                    rec.evict(step, c, cache.name, l, victim, is_dirty(cache, victim))
            if victim is not None and mask_lists is not None:
                evict_writeback(c, l, victim)
        if mask_lists is not None and mask_lists[c][p]:
            dirty[id(path[0])].add(chunk)
        step += 1
    return io_ms
