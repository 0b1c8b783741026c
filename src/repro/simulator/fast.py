"""The fast access core (bit-identical to the reference loop).

:func:`repro.simulator.engine.simulate` is the one entry point: it
validates, resets the machine, and builds the result for both cores,
and runs :func:`_level_pass` instead of its per-access loop when asked
for ``engine="fast"`` on a hierarchy where :func:`is_vectorizable`
holds, with no recorder.  The pass takes several times less wall time.
The speed comes from four changes, none of which may alter a single
observable bit:

* **batched access preparation** — the interleaved ``(client, position)``
  order, the per-access chunk ids, write bits and event keys are whole
  numpy arrays computed up front instead of per access;
* **array-backed cache state** — the passes work directly on each
  policy's own containers, with no method call, stats object or
  recorder check per access.  LRU and FIFO mutate their
  insertion-ordered residency dict (LRU touch = delete/reinsert, FIFO
  touch = no-op, evict = first key); RRIP mutates its ``chunk -> RRPV``
  dict with the same scan-then-age victim rule; ARC mutates its
  ``T1/T2/B1/B2`` dicts and keeps ``p`` and the last-touched chunk in
  locals.  These are exactly the mechanics of the policy classes in
  :mod:`repro.hierarchy.policies`;
* **level by level** — fills are inclusive and nothing is invalidated
  from below, and every hierarchy is a tree of caches (every L1
  private, every cache one parent: :class:`~repro.hierarchy.topology.CacheHierarchy`
  rejects a cache at two nodes).  So a cache's state depends only on
  the events that reach it in global order: the lookups its children
  missed, and the dirty probes their evictions sent down.  Every run
  takes one tight per-policy pass per cache over its own event list,
  level by level (:func:`_level_pass`); read-ahead and write-back are
  events in those lists.  Every statistic follows from flow
  conservation, and each client's I/O time is an in-order ``cumsum``
  of its costs;
* **constant-folded disk model** — with per-access latency constants
  precomputed per disk, the demand reads, read-ahead reads and
  write-backs of each disk are priced in one ordered array instead of
  the reference's ``ParallelFileSystem → StripingLayout → DiskModel``
  call chain (float accumulation order is preserved, so ``busy_ms`` and
  ``per_client_io_ms`` stay bit-identical).

The pass leaves the caches and disks in the state the reference loop
leaves them in (stats, residency order, ARC ghost lists and ``p``,
RRPVs, disk counters, last-block positions), so callers that inspect
the machine afterwards cannot tell the cores apart either.

The differential-equivalence suite
(``tests/simulator/test_engine_equivalence.py``) holds the two cores
bit-identical across the whole suite, random Hypothesis cases and
process-pool runs; ``tests/simulator/test_policy_differential.py``
also compares every policy's internal state after mixed-policy runs on
trees of one to four levels, with write-back and read-ahead.
"""

from __future__ import annotations

import numpy as np

from repro.hierarchy.policies import ARCPolicy, FIFOPolicy, LRUPolicy, RRIPPolicy
from repro.hierarchy.topology import CacheHierarchy

__all__ = ["VECTORIZED_POLICIES", "is_vectorizable"]

#: Policy kinds of the passes; LRU and FIFO share one pass (``<= _FIFO``).
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
        "path_arr": np.asarray(path_idx, dtype=np.int64),
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


def _level_pass(
    static, filesystem, hit_cost, concat, lengths, client_arr, pos_arr,
    write_masks, pf, max_chunk,
) -> list[float]:
    """The fast access core: the run, one cache at a time, level by level.

    ``concat`` holds the client streams one after another and
    ``client_arr``/``pos_arr`` the interleave order.

    Fills are inclusive and nothing is invalidated from below, so a
    cache's state depends only on the events that reach it, in global
    order: the lookups its children missed, and the dirty probes that
    evictions above it sent down.  Each cache runs one policy pass over
    its own event list; what it passes on, regrouped by parent cache
    (a stable merge of sorted runs), is the next level's input.  Private
    L1s run straight off their client's stream slice.

    Events are ordered by ``(step, phase)``: phase 0 is the step's
    lookup and phase ``1 + j`` a probe sent by the eviction of the fill
    at level ``j``, which the reference makes after the lookups and
    before the fills below ``j``.  A probe never moves residency: it
    marks its chunk dirty where resident, else passes on, and past the
    bottom it is a disk write charged to the step's client.  A pass fills on a miss at once, so a probe
    in its own step checks ``v`` against the residency after that fill;
    its tag (how many events it follows the first of its step, a lookup
    if the step has one here) lets the pass tell when that lookup's fill
    just evicted ``v``.  A write marks its chunk
    dirty in the L1 as a probe right after the lookup.  At the bottom,
    read-ahead candidates go just before each lookup and act only when
    the lookup will miss.

    The disk model then prices demand reads, read-ahead reads and
    write-backs per disk in ``(step, phase)`` order, and each client's
    I/O time is the in-order sum of its access costs and the write-backs
    charged to it.  Every statistic follows from flow conservation:
    lookups are the lookup events, fills are misses plus read-ahead
    fills, evictions are fills minus what is still resident, and a
    first-ever access misses every cache above the bottom.  Returns the
    per-client I/O times.
    """
    k = len(lengths)
    # gather[g]: the client-major position of the g-th access in the
    # global interleaved order.
    offsets = np.cumsum(np.asarray([0] + lengths[:-1], dtype=np.int64), dtype=np.int64)
    gather = offsets[client_arr] + pos_arr
    n = len(gather)
    wmask = None
    if write_masks is not None:
        wmask = np.concatenate([np.asarray(write_masks[c], dtype=bool) for c in range(k)])
    levels, up, up_key = static["levels"], static["up"], static["up_key"]
    caches, kind = static["caches"], static["kind"]
    nl = len(levels)
    stride = filesystem.num_storage_nodes
    # Event keys are ``step << PB | phase``.  A pass reads a lookup as
    # its chunk id and any other event as ``~(v << B | tag)``: tag 0..nl
    # is a probe of chunk v, ``tag`` events after the first of its step
    # (the step's lookup, if it has one); tag nl + a stages the
    # read-ahead chunk v + a * stride before the lookup of v, the first
    # of ``ahead`` such with tag nl + pf + ahead instead.
    PB = nl.bit_length()
    B = (nl + 2 * pf).bit_length()
    chunk_arr = concat[gather]
    ginv = np.empty(n, dtype=np.int64)
    ginv[gather] = np.arange(n, dtype=np.int64)
    keys = ginv << PB
    vals = concat
    bounds = np.cumsum([0] + lengths)
    if wmask is not None:
        rep = wmask + 1
        idx = np.repeat(np.arange(n), rep)
        ends = np.cumsum(rep)
        keys = keys[idx]
        vals = concat[idx]
        marks = ends[wmask] - 1
        vals[marks] = ~(vals[marks] << B | 1)
        bounds = np.concatenate(([0], ends))[bounds]
    bounds = bounds.tolist()
    # nspec[x]: the events of cache x that are not lookups.
    nspec = [b - a - m for a, b, m in zip(bounds, bounds[1:], lengths)]
    cost = np.full(n, hit_cost[0])
    victims: dict[int, int] = {}  # a dirty probe's key -> its chunk
    for l, level in enumerate(levels):
        bottom = l == nl - 1
        if bottom and pf:
            # Read-ahead candidates x + a * stride, a = 1..ahead, bounded
            # by the data space, go before each lookup of x.
            ahead = np.minimum((max_chunk - vals) // stride, pf)
            ahead[(ahead < 0) | (vals < 0)] = 0
            rep = ahead + 1
            idx = np.repeat(np.arange(len(vals)), rep)
            ends = np.cumsum(rep)
            # a: 1..ahead on the candidates, ahead + 1 on the event itself.
            a = np.arange(1, len(idx) + 1) - (ends - rep)[idx]
            stage = (a <= ahead[idx]).nonzero()[0]
            a = a[stage]
            a[a == 1] += pf + ahead[idx[stage[a == 1]]] - 1
            keys = keys[idx]
            vals = vals[idx]
            vals[stage] = ~(vals[stage] << B | (nl + a))
            old, bounds = bounds, np.concatenate(([0], ends))[bounds].tolist()
            nspec = [
                ns + (b - a) - (ob - oa)
                for ns, a, b, oa, ob in zip(nspec, bounds, bounds[1:], old, old[1:])
            ]
        # flags[j]: 1 a lookup missed, 2 a probe passes on, 3 a
        # read-ahead chunk was staged.  born: (j, victim) pairs, dirty
        # evictions of the fill at event j.
        flags = bytearray(len(vals))
        born: list[int] = []
        passing = []  # per cache: events passed on
        nborn = []  # per cache: dirty evictions
        nprobe = []  # per cache: probes passed on or born
        for i, a, b, ns in zip(level, bounds, bounds[1:], nspec):
            before = len(born)
            cache = caches[i]
            pol = cache.policy
            events = enumerate(vals[a:b].tolist(), a)
            # Only a probe or a write mark dirties a chunk.
            dirty: set[int] | None = set() if ns else None
            special = None
            if kind[i] == _ARC:
                t1, t2 = pol._t1, pol._t2
                if ns:
                    special = _specials(
                        events, flags, t1, t2, dirty, born, B, nl, stride, pf
                    )
                pol._p, pol._last_touched = _arc_pass(
                    events, flags, cache.capacity, t1, t2, pol._b1, pol._b2,
                    pol.capacity, pol._p, pol._last_touched, dirty, born, special,
                )
                held = len(t1) + len(t2)
            else:
                d = pol._rrpv if kind[i] == _RRIP else pol._order
                if ns:
                    special = _specials(
                        events, flags, d, {}, dirty, born, B, nl, stride, pf
                    )
                if kind[i] <= _FIFO:
                    _lru_pass(
                        events, flags, cache.capacity, d, dirty, born, special,
                        kind[i] == _LRU,
                    )
                else:
                    _rrip_pass(
                        events, flags, cache.capacity, d, pol._max, pol._insert_rrpv,
                        [], dirty, born, special,
                    )
                held = len(d)
            st = cache.stats
            st.accesses = b - a - ns
            st.misses = st.fills = flags.count(1, a, b)
            st.hits = st.accesses - st.misses
            if ns:
                st.fills += flags.count(3, a, b)
            passed = flags.count(2, a, b) if ns else 0
            passing.append(st.misses + passed)
            nborn.append((len(born) - before) // 2)
            nprobe.append(passed + nborn[-1])
            st.evictions = st.fills - held
        fl = np.frombuffer(flags, dtype=np.uint8)
        if bottom:
            break
        # Regroup by parent cache: sort keys pack the parent above the
        # event key.  Each cache's output is one sorted run of keys, so
        # the stable sort merges runs.
        packed = np.repeat(up_key[l], passing)
        packed |= keys[fl.nonzero()[0]]
        if born:
            bk = keys[born[0::2]] | (l + 1)
            victims.update(zip(bk.tolist(), born[1::2]))
            bk |= np.repeat(up_key[l], nborn)
            packed = np.concatenate((packed, bk))
        packed.sort(kind="stable")
        sizes = [0] * len(levels[l + 1])
        nspec = [0] * len(levels[l + 1])
        for x, c, cb, cp in zip(up[l], passing, nborn, nprobe):
            sizes[x] += c + cb
            nspec[x] += cp
        bounds = [0]
        for size in sizes:
            bounds.append(bounds[-1] + size)
        specials = any(nspec)
        if specials:
            phase = packed & ((1 << PB) - 1)
            probe = phase.nonzero()[0]
            group = packed ^ phase
            start = np.searchsorted(group, group[probe])
            tag = probe - start
        keys = packed & _LOW
        steps = keys >> PB
        vals = chunk_arr[steps]
        if specials:
            cost[steps[phase == 0]] = hit_cost[l + 1]
            v = np.asarray([victims[x] for x in keys[probe].tolist()], dtype=np.int64)
            vals[probe] = ~(v << B | tag)
        else:
            cost[steps] = hit_cost[l + 1]

    # Disk operations at the bottom, each (chunk, step, sub-step): the
    # demand read (0), read-ahead reads (2a - 1) and the write-backs of
    # their evictions (2a), then the write-backs of the chains started
    # at level j (2pf + 1 + j).  Write-backs go last.
    SB = (2 * pf + nl).bit_length()
    steps = keys >> PB
    full = steps[fl == 1]
    op_chunk, op_step, op_sub = [chunk_arr[full]], [full], [np.zeros_like(full)]
    if pf:
        staged = np.flatnonzero(fl == 3)
        x = ~vals[staged]
        a = (x & ((1 << B) - 1)) - nl
        a[a > pf] = 1
        op_chunk.append((x >> B) + a * stride)
        op_step.append(steps[staged])
        op_sub.append(2 * a - 1)
    nr = sum(map(len, op_step))
    w_step = w_origin = None
    if born or flags.count(2):
        passed = keys[fl == 2]
        bj = np.asarray(born[0::2], dtype=np.int64)
        be = vals[bj]
        w_step = np.concatenate((passed >> PB, steps[bj]))
        w_origin = np.concatenate(
            ((passed & ((1 << PB) - 1)) - 1, np.full(len(bj), nl - 1))
        )
        op_chunk.append(
            np.asarray([victims[x] for x in passed.tolist()] + born[1::2], dtype=np.int64)
        )
        op_step.append(w_step)
        op_sub.append(2 * pf + 1 + w_origin[: len(passed)])
        a = (~be & ((1 << B) - 1)) - nl
        a[a > pf] = 1
        op_sub.append(np.where(be < 0, 2 * a, 2 * pf + nl))
    # The constant-folded disk model: per disk, the latency of a
    # sequential access (the next block of the disk) and of any other,
    # grouped as DiskModel._access groups them.
    lat_seq, lat_full = [], []
    for disk in filesystem.disks:
        p = disk.params
        transfer = p.transfer_ms(filesystem.chunk_bytes)
        lat_full.append(transfer + (p.avg_seek_ms + p.avg_rotational_ms))
        lat_seq.append(transfer if p.sequential_discount else lat_full[-1])
    op_chunk, op_step, op_sub = (
        np.concatenate(x) if len(x) > 1 else x[0] for x in (op_chunk, op_step, op_sub)
    )
    key = (op_chunk % stride) << _SHIFT | op_step << SB | op_sub
    order = np.argsort(key)
    key = key[order]
    oc = op_chunk[order]
    disk_bounds = np.searchsorted(key, np.arange(stride + 1) << _SHIFT).tolist()
    seq = np.zeros(len(oc), dtype=bool)
    seq[1:] = np.diff(oc) == stride
    per_disk = np.diff(disk_bounds)
    lat = np.where(seq, np.repeat(lat_seq, per_disk), np.repeat(lat_full, per_disk))
    written = order >= nr if w_step is not None else None
    for disk, a, b in zip(filesystem.disks, disk_bounds, disk_bounds[1:]):
        if b > a:
            if written is not None:
                disk.writes = int(np.count_nonzero(written[a:b]))
            disk.reads = b - a - disk.writes
            disk.sequential_reads = int(np.count_nonzero(seq[a:b]))
            disk._last_block = int(oc[b - 1]) // stride
            # The same left-to-right float sum as ``busy_ms += lat``.
            disk.busy_ms = float(np.cumsum(lat[a:b])[-1])
    op_lat = np.empty_like(lat)
    op_lat[order] = lat
    cost[full] = hit_cost[-1] + op_lat[: len(full)]

    # The first access of a chunk misses every cache above the bottom
    # (read-ahead fills only the bottom), so first occurrences among the
    # bottom's lookups, in global order, are global ones.  Without
    # read-ahead a first access misses the bottom too, and only full
    # misses need scanning.
    looked = np.sort(steps[vals >= 0]) if pf else np.sort(full)
    first = looked[np.unique(chunk_arr[looked], return_index=True)[1]]
    cold = cold_full = np.bincount(client_arr[first], minlength=k).tolist()
    if pf:
        is_cold = np.zeros(n, dtype=bool)
        is_cold[first] = True
        cold_full = np.bincount(client_arr[full[is_cold[full]]], minlength=k).tolist()
    for pidx, cc, cf in zip(static["path_idx"], cold, cold_full):
        for i in pidx[:-1]:
            caches[i].stats.cold_misses += cc
        caches[pidx[-1]].stats.cold_misses += cf

    # Per-client I/O: the access costs in client-major order, with each
    # write-back inserted after the terms of its (step, sub-step).
    terms = cost[ginv]
    counts = lengths
    if w_step is not None:
        w_client = client_arr[w_step]
        charged = static["path_arr"][w_client, w_origin]
        for i, count in zip(*np.unique(charged, return_counts=True)):
            caches[i].stats.writebacks = int(count)
        wkey = w_client << _SHIFT | w_step << SB | op_sub[nr:]
        o = np.argsort(wkey)
        ckey = client_arr[ginv] << _SHIFT | ginv << SB
        terms = np.insert(terms, np.searchsorted(ckey, wkey[o]), op_lat[nr:][o])
        counts = (np.asarray(lengths) + np.bincount(w_client, minlength=k)).tolist()
    return _in_order_sums(terms, counts)


def _in_order_sums(terms, counts) -> list[float]:
    """Each client's left-to-right float sum of its ``counts[c]`` terms,
    given client after client.

    The first ``rounds`` terms of every client fill a (round, client)
    matrix, zero-padded past each client's count (x + 0.0 == x); one
    column-wise cumsum sums every client.  All rounds go in when that
    padding is at most the data, else only the rounds every client
    reaches.  A client with terms left continues from its sum.
    """
    k = len(counts)
    rounds = max(counts)
    if rounds * k > 2 * len(terms):
        rounds = min(counts)
    out = [0.0] * k
    starts = np.cumsum([0] + counts[:-1])
    if rounds:
        grid = np.arange(rounds) < np.minimum(counts, rounds)[:, None]
        matrix = np.zeros((rounds, k))
        if rounds < max(counts):
            rank = np.arange(len(terms)) - np.repeat(starts, counts)
            matrix.T[grid] = terms[rank < rounds]
        else:
            matrix.T[grid] = terms
        out = np.cumsum(matrix, axis=0, out=matrix)[-1].tolist()
    for c, (a, count) in enumerate(zip(starts.tolist(), counts)):
        if count > rounds:
            tail = np.concatenate(([out[c]], terms[a + rounds : a + count]))
            out[c] = float(np.cumsum(tail)[-1])
    return out


def _specials(events, flags, r1, r2, dirty, born, bits, nl, stride, pf):
    """A pass's handler of its non-lookup events (see :func:`_level_pass`).

    A probe of ``v`` that finds it resident marks it dirty; one that
    finds the chunk its step's lookup just evicted (``w``, the victim of
    the pass's latest fill, or -1) starts a write-back chain from this
    cache, as the reference's fill would after the probe; any other
    passes on.  Residency is membership of ``r1`` or ``r2`` (ARC's T1
    and T2).  A read-ahead candidate is staged only when the lookup it
    precedes will miss and the chunk is absent; the handler then returns
    it for the pass to fill.  When the lookup will hit, the first
    candidate skips the rest in ``events``, the pass's own iterator.
    Returns -1 otherwise.
    """
    mask = (1 << bits) - 1

    def special(j, e, w):
        tag = ~e & mask
        v = ~e >> bits
        if tag > nl:
            a = tag - nl
            if a > pf:  # the first of a - pf candidates
                if v in r1 or v in r2:
                    for _ in range(a - pf - 1):
                        next(events)
                    return -1
                a = 1
            r = v + a * stride
            if r in r1 or r in r2:
                return -1
            flags[j] = 3
            return r
        if v in r1 or v in r2:
            dirty.add(v)
        elif tag and v == w and flags[j - tag] == 1:
            if born[-2:] != [j - tag, w]:
                born.extend((j - tag, w))
        else:
            flags[j] = 2
        return -1

    return special


def _lru_pass(events, flags, cap, d, dirty, born, special, move):
    """LRU over one event list: a hit moves the chunk to the MRU end
    (FIFO, ``move`` false, leaves it in place); a miss sets ``flags[j]``,
    evicts the first key when full, then inserts.  A dirty victim is
    noted in ``born``; any other event goes through ``special``."""
    held = len(d)
    w = -1
    for j, chunk in events:
        if chunk in d:
            if move:
                del d[chunk]
                d[chunk] = None
            continue
        if chunk < 0:
            chunk = special(j, chunk, w)
            if chunk < 0:
                continue
        else:
            flags[j] = 1
        if held < cap:
            held += 1
            w = -1
        else:
            w = next(iter(d))
            del d[w]
            if dirty and w in dirty:
                dirty.discard(w)
                born += (j, w)
        d[chunk] = None


def _rrip_pass(events, flags, cap, d, rmax, rins, aged, dirty, born, special):
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
    w = -1
    for j, chunk in events:
        if chunk in d:
            del d[chunk]
            d[chunk] = 0
            continue
        if chunk < 0:
            chunk = special(j, chunk, w)
            if chunk < 0:
                continue
        else:
            flags[j] = 1
        if held < cap:
            held += 1
            w = -1
        else:
            while aged:
                w = aged.pop()
                if d[w] == rmax:
                    break
            else:
                up = rmax - max(d.values())
                for key in d:
                    d[key] += up
                aged.extend([key for key, v in reversed(d.items()) if v == rmax])
                w = aged.pop()
            del d[w]
            if dirty and w in dirty:
                dirty.discard(w)
                born += (j, w)
        d[chunk] = rins


def _arc_pass(events, flags, cap, t1, t2, b1, b2, ac, p, last, dirty, born, special):
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
    w = -1
    for j, chunk in events:
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
        if chunk < 0:
            chunk = special(j, chunk, w)
            if chunk < 0:
                continue
        else:
            flags[j] = 1
        if n1 + n2 >= cap:
            if n1 and (n1 > p or not n2 or next(iter(t2)) == last):
                w = next(iter(t1))
                del t1[w]
                b1[w] = None
                n1 -= 1
                m1 += 1
            else:
                w = next(iter(t2))
                del t2[w]
                b2[w] = None
                n2 -= 1
                m2 += 1
            if dirty and w in dirty:
                dirty.discard(w)
                born += (j, w)
            while m1 and n1 + m1 > ac:
                del b1[next(iter(b1))]
                m1 -= 1
            while m2 and n1 + n2 + m1 + m2 > ac2:
                del b2[next(iter(b2))]
                m2 -= 1
        else:
            w = -1
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
