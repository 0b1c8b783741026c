"""The vectorized simulation engine (bit-identical to the reference).

Same contract as :func:`repro.simulator.engine.simulate`, an order of
magnitude less wall time.  The speed comes from four changes, none of
which may alter a single observable bit:

* **batched access preparation** — the interleaved ``(client, position)``
  order and the gathered per-access chunk ids (and, for the general
  loop, write bits, cold flags and the striping arithmetic) are computed
  as whole numpy arrays up front instead of per access;
* **array-backed cache state** — the hot loops work directly on each
  policy's own containers, with no method call, stats object or
  recorder check per access.  Every cache gets a policy kind.  LRU and
  FIFO mutate their insertion-ordered residency dict (LRU touch =
  delete/reinsert, FIFO touch = no-op, evict = first key); RRIP mutates
  its ``chunk -> RRPV`` dict with the same scan-then-age victim rule;
  ARC mutates its ``T1/T2/B1/B2`` dicts and keeps ``p`` and the
  last-touched chunk in locals written back after the run.  These are
  exactly the mechanics of the policy classes in
  :mod:`repro.hierarchy.policies`;
* **level by level** — fills are inclusive and nothing is invalidated
  from below, so a cache's state depends only on the accesses that
  reach it: the misses of the caches above it, in global order.  Every
  hierarchy is a tree of caches (every L1 private, every cache one
  parent: :class:`~repro.hierarchy.topology.CacheHierarchy` rejects a
  cache at two nodes), so a read-only run without prefetching runs one
  tight per-policy loop per cache over its own substream, level by
  level; the misses of a level, merged per parent in global order, are
  the next level's input.  Every statistic follows from flow
  conservation (lookups = the substream, ``fills = misses`` under
  inclusive fill, ``evictions = fills - final occupancy``, a first-ever
  access misses every level), and each client's I/O time is an
  in-order ``np.cumsum`` of its per-access costs.  Prefetching and write-back run the general loop, which walks
  every access down its path and counts every statistic in place;
* **constant-folded disk model** — with per-access latency constants
  precomputed per disk, a miss costs two lookups instead of the
  reference's ``ParallelFileSystem → StripingLayout → DiskModel`` call
  chain (float accumulation order is preserved, so ``busy_ms`` and
  ``per_client_io_ms`` stay bit-identical).

Whole-run fallback: recorder runs and look-alike subclasses only.  A
run with an enabled recorder, or a hierarchy holding a policy object
whose type is a subclass of (not exactly) one of the four registered
classes, which may keep different internals, routes the entire run to
the reference engine unchanged: same inputs,
same objects, same result.  After a fast run the hierarchy's caches and
the filesystem's disks are left in the same externally observable state
the reference engine leaves them in (stats, residency order, ARC ghost
lists and ``p``, RRPVs, disk counters, last-block positions), so callers
that inspect the machine afterwards cannot tell the engines apart either.

The differential-equivalence suite
(``tests/simulator/test_engine_equivalence.py``) holds the two engines
bit-identical across the whole suite, random Hypothesis cases and
process-pool runs; ``tests/simulator/test_policy_differential.py``
also compares every policy's internal state after mixed-policy runs,
on the general loop and on the level-by-level pass of trees of one to
four levels.
"""

from __future__ import annotations

import numpy as np

from repro.hierarchy.policies import ARCPolicy, FIFOPolicy, LRUPolicy, RRIPPolicy
from repro.hierarchy.topology import CacheHierarchy
from repro.simulator.engine import (
    LatencyModel,
    interleave_order,
    simulate as _reference_simulate,
)
from repro.simulator.metrics import SimulationResult
from repro.storage.filesystem import ParallelFileSystem
from repro.telemetry import get_registry

__all__ = ["VECTORIZED_POLICIES", "is_vectorizable", "simulate"]

#: Policy kinds of the hot loops; LRU and FIFO share one branch (``<= _FIFO``).
_LRU, _FIFO, _ARC, _RRIP = 0, 1, 2, 3

#: Exact policy type -> kind (subclasses are not matched).
_VECTORIZED_TYPES = {
    LRUPolicy: _LRU,
    FIFOPolicy: _FIFO,
    ARCPolicy: _ARC,
    RRIPPolicy: _RRIP,
}

#: Replacement policies with an exact array-backed equivalent here.
VECTORIZED_POLICIES = frozenset(cls.name for cls in _VECTORIZED_TYPES)

#: Sort keys pack a group index (a cache or a disk) above this many bits
#: of global access position.
_SHIFT = 40
_LOW = (1 << _SHIFT) - 1

#: Memoized interleave orders keyed by the per-client length tuple —
#: benchmark loops and parameter sweeps replay identical shapes.
_interleave_memo: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}


def is_vectorizable(hierarchy: CacheHierarchy) -> bool:
    """Whether every cache in the hierarchy runs a vectorized policy.

    Checked by exact type, not name: the fast path manipulates the
    policies' internal dicts directly, so a look-alike subclass with
    different internals must take the reference path.
    """
    return _static(hierarchy)["vectorizable"]


def _build_static(hierarchy: CacheHierarchy) -> dict:
    """Topology-derived constants reused across simulate() calls."""
    k = hierarchy.num_clients
    paths = [hierarchy.path(c) for c in range(k)]
    caches = []
    cache_of: dict[int, int] = {}
    for path in paths:
        for cache in path:
            if id(cache) not in cache_of:
                cache_of[id(cache)] = len(caches)
                caches.append(cache)
    path_idx = [tuple(cache_of[id(cache)] for cache in path) for path in paths]
    level_caches = [
        list(hierarchy.caches_at_level(name)) for name in hierarchy.level_names()
    ]
    vectorizable = all(
        type(cache.policy) in _VECTORIZED_TYPES
        for group in level_caches
        for cache in group
    )
    kind = [_VECTORIZED_TYPES.get(type(cache.policy)) for cache in caches]
    # The hierarchy is a tree of caches: every L1 is private to its
    # client and every cache drains its misses into exactly one parent.
    parent = {
        child: par for pidx in path_idx for child, par in zip(pidx, pidx[1:])
    }
    # levels[l]: the caches at level l (L1s in client order, then in
    # order of first appearance); up[l][x]: the index in levels[l + 1]
    # of the parent of levels[l][x], and up_key[l] the same as a sort-key
    # prefix.
    levels = [[pidx[0] for pidx in path_idx]]
    up: list[list[int]] = []
    up_key: list[np.ndarray] = []
    for l in range(1, len(path_idx[0])):
        levels.append(list(dict.fromkeys(pidx[l] for pidx in path_idx)))
        index = {i: x for x, i in enumerate(levels[l])}
        up.append([index[parent[i]] for i in levels[l - 1]])
        up_key.append(np.array(up[-1], dtype=np.int64) << _SHIFT)
    return {
        "paths": paths,
        "caches": caches,
        "policies": [cache.policy for cache in caches],
        "caps": [cache.capacity for cache in caches],
        "kind": kind,
        "path_idx": path_idx,
        "level_caches": level_caches,
        "vectorizable": vectorizable,
        "levels": levels,
        "up": up,
        "up_key": up_key,
    }


def _static(hierarchy: CacheHierarchy) -> dict:
    """Memoized :func:`_build_static`, revalidated against live state."""
    memo = getattr(hierarchy, "_fast_static", None)
    if memo is not None and all(
        cache.policy is pol and cache.capacity == cap
        for cache, pol, cap in zip(memo["caches"], memo["policies"], memo["caps"])
    ):
        return memo
    memo = _build_static(hierarchy)
    try:
        hierarchy._fast_static = memo
    except AttributeError:  # __slots__ hierarchies simply skip the memo
        pass
    return memo


def _interleave(lengths: list[int]) -> tuple[np.ndarray, np.ndarray]:
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
) -> SimulationResult:
    """Run the interleaved simulation on the vectorized engine.

    Same parameters, validation and semantics as
    :func:`repro.simulator.engine.simulate`.  Read-only runs without
    prefetching take :func:`_tree_pass`, level by level; every other
    vectorizable run takes :func:`_general_loop`.  Both run LRU,
    FIFO, ARC and RRIP caches inline.  Only recorder runs and look-alike
    policy subclasses fall back, whole, to the reference path.
    """
    latency = latency or LatencyModel()
    k = hierarchy.num_clients
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
    if write_masks is not None:
        for c in range(k):
            if len(write_masks.get(c, ())) != len(streams[c]):
                raise ValueError(f"write mask of client {c} misaligned")
    rec = recorder if recorder is not None and getattr(recorder, "enabled", True) else None
    static = _static(hierarchy)
    if rec is not None or not static["vectorizable"]:
        # Whole-run fallback: the reference path is the only one that
        # feeds recorders or calls a policy's own methods.
        return _reference_simulate(
            streams,
            hierarchy,
            filesystem,
            latency=latency,
            sync_counts=sync_counts,
            iterations_per_client=iterations_per_client,
            write_masks=write_masks,
            prefetch_degree=prefetch_degree,
            num_data_chunks=num_data_chunks,
            recorder=recorder,
        )

    # The static caches are every cache of the tree (each sits on some
    # client's path), so this is ``hierarchy.reset()`` without the walk.
    for cache in static["caches"]:
        cache.reset()
    filesystem.reset()

    hit_cost = [latency.hit_cost(l) for l in range(num_levels)]
    miss_base = hit_cost[-1]
    stride = filesystem.num_storage_nodes
    if num_data_chunks is not None:
        max_chunk = num_data_chunks - 1
    elif prefetch_degree:
        max_chunk = max(
            (int(s.max()) for s in streams.values() if len(s)), default=0
        )
    else:
        max_chunk = 0  # never consulted without prefetching

    # -- array-backed cache state: one slot per distinct cache object --------------
    caches = static["caches"]
    ncaches = len(caches)
    # The hot loops mutate each policy's own dicts in place (LRU/FIFO
    # first key == eviction victim, LRU touch = delete/reinsert; RRIP's
    # chunk -> RRPV dict; ARC's T1/T2/B1/B2), so residency, recency,
    # RRPVs and ghost lists end up exactly where the reference engine
    # leaves them.  ``res[i]`` is the policy's own dict, or for ARC a
    # per-run T1 ∪ T2 dict that the general loop probes.  ARC's ``p``
    # and last-touched chunk live in lists for the run and are written
    # back afterwards.
    kind = static["kind"]
    res: list[dict[int, object]] = []
    arcs: list[tuple | None] = [None] * ncaches  # (T1, T2, B1, B2, capacity)
    arc_p: list[float] = [0.0] * ncaches
    arc_last: list[int | None] = [None] * ncaches
    # RRIP: (max RRPV, insert RRPV, aged queue); see _rrip_pass.
    rrip: list[tuple[int, int, list[int]] | None] = [None] * ncaches
    for i, pol in enumerate(static["policies"]):
        if kind[i] == _ARC:
            res.append({})  # T1 and T2 are empty after the reset
            arcs[i] = (pol._t1, pol._t2, pol._b1, pol._b2, pol.capacity)
            arc_p[i] = pol._p
            arc_last[i] = pol._last_touched
        elif kind[i] == _RRIP:
            res.append(pol._rrpv)
            rrip[i] = (pol._max, pol._insert_rrpv, [])
        else:
            res.append(pol._order)
    caps = static["caps"]
    path_idx = static["path_idx"]
    hits = [0] * ncaches
    misses = [0] * ncaches
    colds = [0] * ncaches
    fills = [0] * ncaches
    evs = [0] * ncaches
    wbs = [0] * ncaches

    # -- constant-folded disk model ------------------------------------------------
    chunk_bytes = filesystem.chunk_bytes
    dlat_full: list[float] = []
    dlat_seq: list[float] = []
    for d in filesystem.disks:
        p = d.params
        # Same grouping as DiskModel._access: transfer + (seek + rotation).
        full = p.transfer_ms(chunk_bytes) + (p.avg_seek_ms + p.avg_rotational_ms)
        dlat_full.append(full)
        dlat_seq.append(p.transfer_ms(chunk_bytes) if p.sequential_discount else full)
    dreads = [0] * stride
    dwrites = [0] * stride
    dseq = [0] * stride
    dbusy = [0.0] * stride
    dlast = [-2] * stride  # block ids are >= 0, so -2 can never look sequential

    io = [0.0] * k
    lengths = [len(streams[c]) for c in range(k)]
    client_arr, pos_arr = _interleave(lengths)
    n = int(client_arr.shape[0])
    if n:
        concat = np.concatenate(
            [np.asarray(streams[c], dtype=np.int64) for c in range(k)]
        )
        if int(concat.min()) < 0:
            raise ValueError("chunk ids must be non-negative")
        offsets = np.cumsum(
            np.asarray([0] + lengths[:-1], dtype=np.int64), dtype=np.int64
        )
        # gather[g]: the client-major position of the g-th access in
        # the global interleaved order.
        gather = offsets[client_arr] + pos_arr
        chunk_arr = concat[gather]
        if write_masks is None and not prefetch_degree:
            io = _tree_pass(
                static, concat, lengths, client_arr, gather, chunk_arr,
                res, caps, kind, arcs, arc_p, arc_last, rrip,
                hits, misses, colds, fills, evs,
                hit_cost, miss_base, stride, dlast, dseq, dbusy, dreads,
                dlat_full, dlat_seq,
            )
        else:
            if write_masks is None:
                wbit_list = [False] * n  # write-through: nothing turns dirty
            else:
                wbit_list = np.concatenate(
                    [np.asarray(write_masks[c], dtype=bool) for c in range(k)]
                )[gather].tolist()
            # cold == first occurrence in the global interleaved order.
            cold_arr = np.zeros(n, dtype=bool)
            cold_arr[np.unique(chunk_arr, return_index=True)[1]] = True
            _general_loop(
                client_arr.tolist(), chunk_arr.tolist(),
                (chunk_arr % stride).tolist(), (chunk_arr // stride).tolist(),
                cold_arr.tolist(), wbit_list,
                path_idx, res, caps, kind, arcs, arc_p, arc_last, rrip,
                hits, misses, colds, fills, evs, wbs,
                hit_cost, miss_base, num_levels, prefetch_degree, max_chunk,
                stride, dlast, dseq, dbusy, dreads, dwrites, dlat_full,
                dlat_seq, io,
            )

    # -- stats land on the cache objects, exactly as the reference leaves them -----
    for i, cache in enumerate(caches):
        if kind[i] == _ARC:
            cache.policy._p = arc_p[i]
            cache.policy._last_touched = arc_last[i]
        st = cache.stats
        st.accesses = hits[i] + misses[i]
        st.hits = hits[i]
        st.misses = misses[i]
        st.cold_misses = colds[i]
        st.fills = fills[i]
        st.evictions = evs[i]
        st.writebacks = wbs[i]
    for d, r, w, s, b, lb in zip(
        filesystem.disks, dreads, dwrites, dseq, dbusy, dlast
    ):
        d.reads = r
        d.writes = w
        d.sequential_reads = s
        d.busy_ms = b
        d._last_block = lb if lb >= 0 else None

    io_ms = np.asarray(io, dtype=np.float64)

    compute_ms = np.zeros(k, dtype=np.float64)
    if iterations_per_client:
        for c, nit in iterations_per_client.items():
            compute_ms[c] = nit * latency.compute_ms_per_iteration

    sync_ms = np.zeros(k, dtype=np.float64)
    if sync_counts:
        for c, nsync in sync_counts.items():
            sync_ms[c] = nsync * latency.sync_stall_ms

    level_stats = {}
    for name, group in zip(hierarchy.level_names(), static["level_caches"]):
        agg = None
        for cache in group:
            agg = cache.stats if agg is None else agg.merge(cache.stats)
        level_stats[name] = agg

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


def _tree_pass(
    static, concat, lengths, client_arr, gather, chunk_arr,
    res, caps, kind, arcs, arc_p, arc_last, rrip,
    hits, misses, colds, fills, evs,
    hit_cost, miss_base, stride, dlast, dseq, dbusy, dreads,
    dlat_full, dlat_seq,
) -> list[float]:
    """Read-only runs without prefetching, level by level.

    Fills are inclusive and nothing is invalidated from below, so a
    cache's state depends only on the accesses that reach it: the misses
    of the caches above it, in global order.  Each level therefore runs
    one policy pass per cache over that cache's own substream; the
    misses, regrouped by the next level's owning cache (a stable merge
    that keeps global order within each group), are the next level's
    input.  Private L1s run straight off their client's stream slice.
    The full misses then go through the disk model in global order, and
    each client's I/O time is the in-order sum of its per-access costs.
    Every statistic follows from flow conservation: a cache's lookups
    are its substream, every miss is a fill, evictions are fills minus
    what is still resident, and a first-ever access misses every level.
    Returns the per-client I/O times.
    """
    n = len(gather)
    # ginv[j]: the global position of the client-major j-th access.
    ginv = np.empty(n, dtype=np.int64)
    ginv[gather] = np.arange(n, dtype=np.int64)
    # The current level's input: global positions, chunks, and each
    # cache's [a, b) slice of them.  L1 runs in client-major order.
    pos = ginv
    chunks = concat
    bounds = client_bounds = [0]
    for length in lengths:
        bounds.append(bounds[-1] + length)
    levels, up, up_key = static["levels"], static["up"], static["up_key"]
    cost = np.full(n, hit_cost[0])
    for l, level in enumerate(levels):
        # flags[j] = 1: input j missed its cache.
        flags = bytearray(len(chunks))
        counts = []
        for i, a, b in zip(level, bounds, bounds[1:]):
            kd = kind[i]
            sub = chunks[a:b].tolist()
            if kd == _ARC:
                t1, t2, b1, b2, ac = arcs[i]
                arc_p[i], arc_last[i] = _arc_pass(
                    sub, a, flags, caps[i], t1, t2, b1, b2, ac,
                    arc_p[i], arc_last[i],
                )
                held = len(t1) + len(t2)
            else:
                if kd == _LRU:
                    _lru_pass(sub, a, flags, caps[i], res[i])
                elif kd == _FIFO:
                    _fifo_pass(sub, a, flags, caps[i], res[i])
                else:
                    _rrip_pass(sub, a, flags, caps[i], res[i], *rrip[i])
                held = len(res[i])
            missed = flags.count(1, a, b)
            counts.append(missed)
            misses[i] = fills[i] = missed
            hits[i] = b - a - missed
            evs[i] = missed - held
        out = pos[np.frombuffer(flags, dtype=np.bool_)]
        if l == len(up):
            break
        # Regroup by parent cache: sort keys pack the parent above the
        # global position.  Each cache's misses are one sorted run of
        # keys, so the stable sort merges runs.
        pos = np.repeat(up_key[l], counts)
        pos |= out
        pos.sort(kind="stable")
        pos &= _LOW
        sizes = [0] * len(levels[l + 1])
        for x, missed in zip(up[l], counts):
            sizes[x] += missed
        bounds = [0]
        for size in sizes:
            bounds.append(bounds[-1] + size)
        cost[pos] = hit_cost[l + 1]
        chunks = chunk_arr[pos]

    # Full misses: the constant-folded disk model, each disk's reads in
    # global order.  The disks were just reset, so a disk's first read is
    # never sequential; a later one is when its chunk is the previous
    # read's plus ``stride`` (the next block of the same disk).
    full = chunk_arr[out] % stride
    full <<= _SHIFT
    full |= out
    full.sort(kind="stable")
    disk_bounds = np.searchsorted(full, np.arange(stride + 1) << _SHIFT).tolist()
    full &= _LOW
    full_chunks = chunk_arr[full]
    reads = np.diff(disk_bounds)
    seq = np.zeros(len(full), dtype=bool)
    seq[1:] = np.diff(full_chunks) == stride
    lat = np.where(seq, np.repeat(dlat_seq, reads), np.repeat(dlat_full, reads))
    cost[full] = miss_base + lat
    for d, (a, b) in enumerate(zip(disk_bounds, disk_bounds[1:])):
        if b > a:
            dreads[d] = b - a
            dseq[d] = int(np.count_nonzero(seq[a:b]))
            dlast[d] = int(full_chunks[b - 1]) // stride
            # The same left-to-right float sum as ``busy_ms += lat``.
            dbusy[d] = float(np.cumsum(lat[a:b])[-1])

    # A chunk's first access is its first full miss, and a chunk's reads
    # all hit one disk, so first occurrences here are global ones.
    first = np.unique(full_chunks, return_index=True)[1]
    k = len(lengths)
    cold_per_client = np.bincount(client_arr[full[first]], minlength=k).tolist()
    for pidx, cc in zip(static["path_idx"], cold_per_client):
        for i in pidx:
            colds[i] += cc

    # Per-client I/O, the same left-to-right float sum as ``io += cost``.
    # Global order is round-major, so the first ``rounds`` rounds fill a
    # (round, client) matrix, zero-padded past each stream's end (x + 0.0
    # == x); one column-wise cumsum sums every client.  All rounds go in
    # when that padding is at most the data, else only the rounds every
    # client reaches.  A stream still running afterwards continues from
    # its sum, written over its last summed cost in client-major order.
    rounds = max(lengths)
    if rounds * k > 2 * n:
        rounds = min(lengths)
    io = [0.0] * k
    if rounds:
        grid = np.arange(rounds)[:, None] < np.minimum(lengths, rounds)
        matrix = np.zeros(grid.shape)
        matrix[grid] = cost[: int(np.count_nonzero(grid))]
        io = np.cumsum(matrix, axis=0, out=matrix)[-1].tolist()
    if rounds < max(lengths):
        cost = cost[ginv]
        for c, length in enumerate(lengths):
            if length > rounds:
                a = client_bounds[c] + rounds
                if rounds:
                    a -= 1
                    cost[a] = io[c]
                io[c] = float(np.cumsum(cost[a : client_bounds[c + 1]])[-1])
    return io


def _lru_pass(chunks, j, flags, cap, d):
    """LRU over one substream: a hit moves the chunk to the MRU end; a
    miss sets ``flags[j]`` (``j`` counts on from the slice start), evicts
    the first key when full, then inserts."""
    held = len(d)
    for j, chunk in enumerate(chunks, j):
        if chunk in d:
            del d[chunk]
            d[chunk] = None
            continue
        flags[j] = 1
        if held < cap:
            held += 1
        else:
            del d[next(iter(d))]
        d[chunk] = None


def _fifo_pass(chunks, j, flags, cap, d):
    """FIFO: :func:`_lru_pass` with hits left in place."""
    held = len(d)
    for j, chunk in enumerate(chunks, j):
        if chunk in d:
            continue
        flags[j] = 1
        if held < cap:
            held += 1
        else:
            del d[next(iter(d))]
        d[chunk] = None


def _rrip_pass(chunks, j, flags, cap, d, rmax, rins, aged):
    """RRIP over its ``chunk -> RRPV`` dict: a hit sets RRPV 0; a miss
    evicts the first chunk at the max RRPV (aging everyone first when
    none is there) and inserts at ``rins``.

    A chunk reaches the max RRPV only by aging, and until the next aging
    touches and evictions only remove chunks from that set, never
    reorder it.  So the chunks one aging lifts to the max, stacked in
    reverse dict order in ``aged``, serve as ``RRIPPolicy.evict``'s scan:
    pop until one still holds the max; age again only when none does.
    """
    held = len(d)
    for j, chunk in enumerate(chunks, j):
        if chunk in d:
            del d[chunk]
            d[chunk] = 0
            continue
        flags[j] = 1
        if held < cap:
            held += 1
        else:
            while aged:
                victim = aged.pop()
                if d[victim] == rmax:
                    break
            else:
                up = rmax - max(d.values())
                for key in d:
                    d[key] += up
                aged.extend([key for key, v in reversed(d.items()) if v == rmax])
                victim = aged.pop()
            del d[victim]
        d[chunk] = rins


def _arc_pass(chunks, j, flags, cap, t1, t2, b1, b2, ac, p, last):
    """ARC on its own ``T1/T2/B1/B2`` dicts, with ``p``, the
    last-touched chunk and the four list sizes in locals.

    A hit moves the chunk to T2's MRU end.  A miss runs
    ``ARCPolicy.evict`` when the cache is full (``cap``, the cache's
    capacity), then ``ARCPolicy.insert``, each followed by the
    ghost-list trim sized by the policy's own capacity ``ac``.  Returns
    the final ``(p, last)``.
    """
    n1, n2, m1, m2 = len(t1), len(t2), len(b1), len(b2)
    ac2 = 2 * ac
    for j, chunk in enumerate(chunks, j):
        if chunk in t1:
            del t1[chunk]
            t2[chunk] = None
            n1 -= 1
            n2 += 1
            last = chunk
            continue
        if chunk in t2:
            del t2[chunk]
            t2[chunk] = None
            last = chunk
            continue
        flags[j] = 1
        if n1 + n2 >= cap:
            if n1 and (n1 > p or not n2 or next(iter(t2)) == last):
                victim = next(iter(t1))
                del t1[victim]
                b1[victim] = None
                n1 -= 1
                m1 += 1
            else:
                victim = next(iter(t2))
                del t2[victim]
                b2[victim] = None
                n2 -= 1
                m2 += 1
            while m1 and n1 + m1 > ac:
                del b1[next(iter(b1))]
                m1 -= 1
            while m2 and n1 + n2 + m1 + m2 > ac2:
                del b2[next(iter(b2))]
                m2 -= 1
        if chunk in b1:
            p = min(ac, p + max(1.0, m2 / m1))
            del b1[chunk]
            m1 -= 1
            t2[chunk] = None
            n2 += 1
        elif chunk in b2:
            p = max(0.0, p - max(1.0, m1 / m2))
            del b2[chunk]
            m2 -= 1
            t2[chunk] = None
            n2 += 1
        else:
            t1[chunk] = None
            n1 += 1
        while m1 and n1 + m1 > ac:
            del b1[next(iter(b1))]
            m1 -= 1
        while m2 and n1 + n2 + m1 + m2 > ac2:
            del b2[next(iter(b2))]
            m2 -= 1
    return p, last


def _general_loop(
    cl_list, chunk_list, node_list, block_list, cold_list, wbit_list,
    path_idx, res, caps, kind, arcs, arc_p, arc_last, rrip,
    hits, misses, colds, fills, evs, wbs,
    hit_cost, miss_base, num_levels, pf, max_chunk, stride,
    dlast, dseq, dbusy, dreads, dwrites, dlat_full, dlat_seq, io,
):
    """The hot loop for every run the tree pass does not take.

    Sequential prefetch at the bottom level and write-back; every
    statistic is counted in place.  Mirrors the reference engine's
    dirty-chunk bookkeeping: a write dirties the
    chunk in the private cache; evicting a dirty chunk is absorbed by
    the first lower level holding the victim, else charged as a disk
    write to the client whose fill triggered the eviction.  With
    all-false write bits the dirty sets stay empty and no write-back
    ever happens.

    Fills run in the reference's order through one fill step per chunk
    and level: after a full miss, the read-ahead chunks staged into the
    bottom cache come first, then the inclusive fill of every level
    that missed.  A chunk being filled at a level just missed its lookup
    there (or, read ahead, was just probed absent), and nothing since
    can have inserted it (prefetch only stages strictly larger ids,
    dirty propagation never inserts), so — unlike ``ChunkCache.fill`` —
    no already-resident recheck is needed.
    """
    ncaches = len(res)
    dirty: list[set[int]] = [set() for _ in range(ncaches)]
    bottom = num_levels - 1

    def _evict_writeback(c: int, pidx: tuple, level: int, victim: int) -> None:
        """Write back a dirty victim evicted from ``pidx[level]``."""
        ci = pidx[level]
        dirty[ci].discard(victim)
        for lower in range(level + 1, num_levels):
            li = pidx[lower]
            if victim in res[li]:
                dirty[li].add(victim)
                return
        wbs[ci] += 1
        vnode = victim % stride
        vblock = victim // stride
        if vblock == dlast[vnode] + 1:
            dseq[vnode] += 1
            lat = dlat_seq[vnode]
        else:
            lat = dlat_full[vnode]
        dlast[vnode] = vblock
        dbusy[vnode] += lat
        dwrites[vnode] += 1
        io[c] += lat

    for c, chunk, node, block, cold, wbit in zip(
        cl_list, chunk_list, node_list, block_list, cold_list, wbit_list
    ):
        pidx = path_idx[c]
        hit_level = -1
        l = 0
        for ci in pidx:
            d = res[ci]
            if chunk in d:
                hits[ci] += 1
                kd = kind[ci]
                if kd == _LRU:
                    del d[chunk]
                    d[chunk] = None
                elif kd == _ARC:
                    t1, t2 = arcs[ci][:2]
                    if chunk in t1:
                        del t1[chunk]
                    else:
                        del t2[chunk]
                    t2[chunk] = None
                    arc_last[ci] = chunk
                elif kd == _RRIP:
                    del d[chunk]
                    d[chunk] = 0
                hit_level = l
                break
            misses[ci] += 1
            if cold:
                colds[ci] += 1
            l += 1
        if hit_level >= 0:
            io[c] += hit_cost[hit_level]
            fill_to = hit_level
            ahead = 0
        else:
            if block == dlast[node] + 1:
                dseq[node] += 1
                lat = dlat_seq[node]
            else:
                lat = dlat_full[node]
            dlast[node] = block
            dbusy[node] += lat
            dreads[node] += 1
            io[c] += miss_base + lat
            fill_to = num_levels
            # Read-ahead candidates chunk + a * stride (same disk, next
            # blocks) for a = 1..ahead, bounded by the data space.
            ahead = 0
            if pf:
                ahead = (max_chunk - chunk) // stride
                if ahead > pf:
                    ahead = pf
                elif ahead < 0:
                    ahead = 0
        # Step j < 0 stages read-ahead chunk a = ahead + 1 + j into the
        # bottom cache; step j >= 0 fills level j with the chunk.
        for j in range(-ahead, fill_to):
            if j < 0:
                l = bottom
                a = ahead + 1 + j
                ch = chunk + a * stride
                ci = pidx[l]
                d = res[ci]
                if ch in d:
                    continue
                nb = block + a
                if nb == dlast[node] + 1:
                    dseq[node] += 1
                    lat = dlat_seq[node]
                else:
                    lat = dlat_full[node]
                dlast[node] = nb
                dbusy[node] += lat
                dreads[node] += 1
            else:
                l = j
                ch = chunk
                ci = pidx[l]
                d = res[ci]
            kd = kind[ci]
            if kd <= _FIFO:
                if len(d) >= caps[ci]:
                    victim = next(iter(d))
                    del d[victim]
                    evs[ci] += 1
                    d[ch] = None
                    fills[ci] += 1
                    if victim in dirty[ci]:
                        _evict_writeback(c, pidx, l, victim)
                else:
                    d[ch] = None
                    fills[ci] += 1
                continue
            victim = -1
            if kd == _ARC:
                # ARCPolicy.evict, then ARCPolicy.insert, each followed
                # by the ghost-list trim.
                t1, t2, b1, b2, ac = arcs[ci]
                if len(d) >= caps[ci]:
                    if t1 and (
                        len(t1) > arc_p[ci] or not t2 or next(iter(t2)) == arc_last[ci]
                    ):
                        victim = next(iter(t1))
                        del t1[victim]
                        b1[victim] = None
                    else:
                        victim = next(iter(t2))
                        del t2[victim]
                        b2[victim] = None
                    del d[victim]
                    while b1 and len(t1) + len(b1) > ac:
                        del b1[next(iter(b1))]
                    while b2 and len(d) + len(b1) + len(b2) > 2 * ac:
                        del b2[next(iter(b2))]
                if ch in b1:
                    arc_p[ci] = min(ac, arc_p[ci] + max(1.0, len(b2) / len(b1)))
                    del b1[ch]
                    t2[ch] = None
                elif ch in b2:
                    arc_p[ci] = max(0.0, arc_p[ci] - max(1.0, len(b1) / len(b2)))
                    del b2[ch]
                    t2[ch] = None
                else:
                    t1[ch] = None
                d[ch] = None
                while b1 and len(t1) + len(b1) > ac:
                    del b1[next(iter(b1))]
                while b2 and len(d) + len(b1) + len(b2) > 2 * ac:
                    del b2[next(iter(b2))]
            else:
                rmax, rins, aged = rrip[ci]
                if len(d) >= caps[ci]:
                    while aged:
                        victim = aged.pop()
                        if d[victim] == rmax:
                            break
                    else:
                        up = rmax - max(d.values())
                        for key in d:
                            d[key] += up
                        aged.extend(key for key, v in reversed(d.items()) if v == rmax)
                        victim = aged.pop()
                    del d[victim]
                d[ch] = rins
            fills[ci] += 1
            if victim >= 0:
                evs[ci] += 1
                if victim in dirty[ci]:
                    _evict_writeback(c, pidx, l, victim)
        if wbit:
            dirty[pidx[0]].add(chunk)
