"""Chunk replacement policies.

The paper manages every storage cache with LRU (§5.1) but stresses that
the mapping is orthogonal to the policy ("our approach itself can work
with any storage caching policy").  We ship LRU as the default plus
FIFO, CLOCK, LFU, an MQ-lite (the multi-queue policy the related work
cites for second-level buffer caches), SRRIP and ARC, so the
orthogonality claim can be exercised per hierarchy level (the scenario
layer's policy matrix and the ablation bench).  LRU, FIFO, RRIP and ARC
run inline on the fast engine's hot loops (:mod:`repro.simulator.fast`),
which mutates their internal dicts directly; CLOCK, LFU and MQ, which no
scenario, paper figure or benchmark uses, and any subclass run on the
reference engine.

A policy tracks resident chunk ids and answers *which chunk to evict*.
The hot path is ``touch``/``insert``/``evict``; LRU and FIFO are O(1)
via ordered dicts, CLOCK and RRIP are amortised O(1).  Policies that
need to know the cache size (ARC's ghost lists) take ``capacity``;
:func:`make_policy` forwards it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

__all__ = [
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "CLOCKPolicy",
    "LFUPolicy",
    "MQPolicy",
    "RRIPPolicy",
    "ARCPolicy",
    "make_policy",
    "policy_names",
    "check_policy_name",
]


class ReplacementPolicy(ABC):
    """Interface every replacement policy implements."""

    name: str = "base"

    @abstractmethod
    def touch(self, chunk_id: int) -> None:
        """Record a hit on a resident chunk."""

    @abstractmethod
    def insert(self, chunk_id: int) -> None:
        """Record the arrival of a chunk (not currently resident)."""

    @abstractmethod
    def evict(self) -> int:
        """Choose and remove the victim chunk; return its id."""

    @abstractmethod
    def remove(self, chunk_id: int) -> None:
        """Forcibly remove a chunk (invalidation)."""

    @abstractmethod
    def __contains__(self, chunk_id: int) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def resident(self) -> list[int]:
        """All resident chunk ids (order unspecified)."""

    @abstractmethod
    def clear(self) -> None: ...


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used — the paper's default (§5.1)."""

    name = "lru"

    def __init__(self):
        self._order: dict[int, None] = {}  # insertion order == recency order

    def touch(self, chunk_id: int) -> None:
        # Move to most-recently-used end.
        try:
            del self._order[chunk_id]
        except KeyError:
            raise KeyError(f"chunk {chunk_id} not resident") from None
        self._order[chunk_id] = None

    def insert(self, chunk_id: int) -> None:
        if chunk_id in self._order:
            raise ValueError(f"chunk {chunk_id} already resident")
        self._order[chunk_id] = None

    def evict(self) -> int:
        try:
            victim = next(iter(self._order))
        except StopIteration:
            raise RuntimeError("evict from empty cache") from None
        del self._order[victim]
        return victim

    def remove(self, chunk_id: int) -> None:
        try:
            del self._order[chunk_id]
        except KeyError:
            raise KeyError(f"chunk {chunk_id} not resident") from None

    def __contains__(self, chunk_id: int) -> bool:
        return chunk_id in self._order

    def __len__(self) -> int:
        return len(self._order)

    def resident(self) -> list[int]:
        return list(self._order)

    def clear(self) -> None:
        self._order.clear()


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: hits do not refresh residency."""

    name = "fifo"

    def __init__(self):
        self._order: dict[int, None] = {}

    def touch(self, chunk_id: int) -> None:
        if chunk_id not in self._order:
            raise KeyError(f"chunk {chunk_id} not resident")
        # FIFO ignores hits.

    def insert(self, chunk_id: int) -> None:
        if chunk_id in self._order:
            raise ValueError(f"chunk {chunk_id} already resident")
        self._order[chunk_id] = None

    def evict(self) -> int:
        try:
            victim = next(iter(self._order))
        except StopIteration:
            raise RuntimeError("evict from empty cache") from None
        del self._order[victim]
        return victim

    def remove(self, chunk_id: int) -> None:
        try:
            del self._order[chunk_id]
        except KeyError:
            raise KeyError(f"chunk {chunk_id} not resident") from None

    def __contains__(self, chunk_id: int) -> bool:
        return chunk_id in self._order

    def __len__(self) -> int:
        return len(self._order)

    def resident(self) -> list[int]:
        return list(self._order)

    def clear(self) -> None:
        self._order.clear()


class CLOCKPolicy(ReplacementPolicy):
    """Second-chance CLOCK: one reference bit per resident chunk."""

    name = "clock"

    def __init__(self):
        self._ref: dict[int, bool] = {}  # insertion order = clock hand order

    def touch(self, chunk_id: int) -> None:
        if chunk_id not in self._ref:
            raise KeyError(f"chunk {chunk_id} not resident")
        self._ref[chunk_id] = True

    def insert(self, chunk_id: int) -> None:
        if chunk_id in self._ref:
            raise ValueError(f"chunk {chunk_id} already resident")
        self._ref[chunk_id] = False

    def evict(self) -> int:
        if not self._ref:
            raise RuntimeError("evict from empty cache")
        # Sweep from the hand (dict head), granting second chances by
        # re-queueing referenced chunks with the bit cleared.
        while True:
            chunk_id = next(iter(self._ref))
            referenced = self._ref.pop(chunk_id)
            if referenced:
                self._ref[chunk_id] = False  # moved to tail, bit cleared
            else:
                return chunk_id

    def remove(self, chunk_id: int) -> None:
        try:
            del self._ref[chunk_id]
        except KeyError:
            raise KeyError(f"chunk {chunk_id} not resident") from None

    def __contains__(self, chunk_id: int) -> bool:
        return chunk_id in self._ref

    def __len__(self) -> int:
        return len(self._ref)

    def resident(self) -> list[int]:
        return list(self._ref)

    def clear(self) -> None:
        self._ref.clear()


class LFUPolicy(ReplacementPolicy):
    """Least-frequently-used, ties broken by recency (LRU among ties)."""

    name = "lfu"

    def __init__(self):
        self._freq: dict[int, int] = {}  # insertion order tracks recency
        self._clock = 0
        self._last: dict[int, int] = {}

    def _bump(self, chunk_id: int) -> None:
        self._clock += 1
        self._last[chunk_id] = self._clock

    def touch(self, chunk_id: int) -> None:
        if chunk_id not in self._freq:
            raise KeyError(f"chunk {chunk_id} not resident")
        self._freq[chunk_id] += 1
        self._bump(chunk_id)

    def insert(self, chunk_id: int) -> None:
        if chunk_id in self._freq:
            raise ValueError(f"chunk {chunk_id} already resident")
        self._freq[chunk_id] = 1
        self._bump(chunk_id)

    def evict(self) -> int:
        if not self._freq:
            raise RuntimeError("evict from empty cache")
        victim = min(
            self._freq, key=lambda c: (self._freq[c], self._last[c])
        )
        del self._freq[victim]
        del self._last[victim]
        return victim

    def remove(self, chunk_id: int) -> None:
        try:
            del self._freq[chunk_id]
            del self._last[chunk_id]
        except KeyError:
            raise KeyError(f"chunk {chunk_id} not resident") from None

    def __contains__(self, chunk_id: int) -> bool:
        return chunk_id in self._freq

    def __len__(self) -> int:
        return len(self._freq)

    def resident(self) -> list[int]:
        return list(self._freq)

    def clear(self) -> None:
        self._freq.clear()
        self._last.clear()
        self._clock = 0


class MQPolicy(ReplacementPolicy):
    """Multi-Queue (Zhou et al., USENIX ATC'01) — lite.

    The paper's related work singles MQ out as the policy suited to
    second-level buffer caches, whose accesses (the first level's
    misses) have weak recency but strong frequency structure.  This is
    the core of the algorithm: ``m`` LRU queues, a chunk lives in queue
    ``min(log2(frequency), m-1)``, eviction takes the LRU chunk of the
    lowest non-empty queue.  (The full MQ's lifetime-based demotion and
    ghost buffer are out of scope.)
    """

    name = "mq"

    def __init__(self, num_queues: int = 4):
        if num_queues < 1:
            raise ValueError("need at least one queue")
        self.num_queues = num_queues
        self._queues: list[dict[int, None]] = [dict() for _ in range(num_queues)]
        self._freq: dict[int, int] = {}

    def _queue_of(self, freq: int) -> int:
        return min(freq.bit_length() - 1, self.num_queues - 1)

    def touch(self, chunk_id: int) -> None:
        if chunk_id not in self._freq:
            raise KeyError(f"chunk {chunk_id} not resident")
        old_q = self._queue_of(self._freq[chunk_id])
        self._freq[chunk_id] += 1
        new_q = self._queue_of(self._freq[chunk_id])
        del self._queues[old_q][chunk_id]
        self._queues[new_q][chunk_id] = None  # MRU position of its queue

    def insert(self, chunk_id: int) -> None:
        if chunk_id in self._freq:
            raise ValueError(f"chunk {chunk_id} already resident")
        self._freq[chunk_id] = 1
        self._queues[0][chunk_id] = None

    def evict(self) -> int:
        for queue in self._queues:
            if queue:
                victim = next(iter(queue))
                del queue[victim]
                del self._freq[victim]
                return victim
        raise RuntimeError("evict from empty cache")

    def remove(self, chunk_id: int) -> None:
        if chunk_id not in self._freq:
            raise KeyError(f"chunk {chunk_id} not resident")
        q = self._queue_of(self._freq[chunk_id])
        del self._queues[q][chunk_id]
        del self._freq[chunk_id]

    def __contains__(self, chunk_id: int) -> bool:
        return chunk_id in self._freq

    def __len__(self) -> int:
        return len(self._freq)

    def resident(self) -> list[int]:
        return list(self._freq)

    def clear(self) -> None:
        for q in self._queues:
            q.clear()
        self._freq.clear()


class RRIPPolicy(ReplacementPolicy):
    """Static RRIP (Jaleel et al., ISCA'10) with ``m``-bit prediction.

    Every resident chunk carries a re-reference prediction value
    (RRPV); insertion predicts a *long* interval (``max - 1``), a hit
    promotes to *near-immediate* (0), and eviction takes the first
    chunk predicted *distant* (``max``), aging everyone when none is.
    Scan-resistant where LRU thrashes: a one-pass sweep enters at
    ``max - 1`` and is evicted before it can displace the hot set.
    Ties at ``max`` break LRU-wise (touch refreshes dict order).
    """

    name = "rrip"

    def __init__(self, m_bits: int = 2):
        if m_bits < 1:
            raise ValueError("need at least one RRPV bit")
        self._max = (1 << m_bits) - 1
        self._insert_rrpv = self._max - 1
        self._rrpv: dict[int, int] = {}  # insertion order = age order per RRPV

    def touch(self, chunk_id: int) -> None:
        if chunk_id not in self._rrpv:
            raise KeyError(f"chunk {chunk_id} not resident")
        # Promote to near-immediate and refresh age order so equal-RRPV
        # ties are broken against the least recently touched chunk.
        del self._rrpv[chunk_id]
        self._rrpv[chunk_id] = 0

    def insert(self, chunk_id: int) -> None:
        if chunk_id in self._rrpv:
            raise ValueError(f"chunk {chunk_id} already resident")
        self._rrpv[chunk_id] = self._insert_rrpv

    def evict(self) -> int:
        if not self._rrpv:
            raise RuntimeError("evict from empty cache")
        while True:
            for chunk_id, rrpv in self._rrpv.items():
                if rrpv >= self._max:
                    del self._rrpv[chunk_id]
                    return chunk_id
            for chunk_id in self._rrpv:
                self._rrpv[chunk_id] += 1

    def remove(self, chunk_id: int) -> None:
        try:
            del self._rrpv[chunk_id]
        except KeyError:
            raise KeyError(f"chunk {chunk_id} not resident") from None

    def __contains__(self, chunk_id: int) -> bool:
        return chunk_id in self._rrpv

    def __len__(self) -> int:
        return len(self._rrpv)

    def resident(self) -> list[int]:
        return list(self._rrpv)

    def clear(self) -> None:
        self._rrpv.clear()


class ARCPolicy(ReplacementPolicy):
    """Adaptive Replacement Cache (Megiddo & Modha, FAST'03).

    Balances recency (T1: seen once) against frequency (T2: seen
    twice+) with ghost lists B1/B2 remembering recent evictions; a
    ghost hit on re-insertion moves the adaptation target ``p`` toward
    the list that would have kept the chunk.  Needs the cache
    ``capacity`` for ghost sizing, so it is only constructible through
    :func:`make_policy` with a capacity (as :class:`ChunkCache` does).

    One deliberate deviation from the letter of the paper: when the
    replacement rule points at T2's LRU end but that chunk is the most
    recently touched resident, the victim comes from T1 instead — the
    engine's evict-then-fill protocol must never throw out the chunk
    it promoted one access ago.
    """

    name = "arc"

    def __init__(self, capacity: int | None = None):
        if capacity is None:
            raise ValueError("arc needs the cache capacity (use make_policy)")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._t1: dict[int, None] = {}  # resident, seen once (LRU order)
        self._t2: dict[int, None] = {}  # resident, seen twice+ (LRU order)
        self._b1: dict[int, None] = {}  # ghosts of T1 evictions
        self._b2: dict[int, None] = {}  # ghosts of T2 evictions
        self._p = 0.0  # target size of T1
        self._last_touched: int | None = None

    def touch(self, chunk_id: int) -> None:
        if chunk_id in self._t1:
            del self._t1[chunk_id]
        elif chunk_id in self._t2:
            del self._t2[chunk_id]
        else:
            raise KeyError(f"chunk {chunk_id} not resident")
        self._t2[chunk_id] = None
        self._last_touched = chunk_id

    def insert(self, chunk_id: int) -> None:
        if chunk_id in self._t1 or chunk_id in self._t2:
            raise ValueError(f"chunk {chunk_id} already resident")
        c = self.capacity
        if chunk_id in self._b1:
            # B1 ghost hit: recency was undervalued — grow T1's target.
            self._p = min(c, self._p + max(1.0, len(self._b2) / len(self._b1)))
            del self._b1[chunk_id]
            self._t2[chunk_id] = None
        elif chunk_id in self._b2:
            # B2 ghost hit: frequency was undervalued — shrink T1's target.
            self._p = max(0.0, self._p - max(1.0, len(self._b1) / len(self._b2)))
            del self._b2[chunk_id]
            self._t2[chunk_id] = None
        else:
            self._t1[chunk_id] = None
        self._trim_ghosts()

    def evict(self) -> int:
        from_t1 = bool(self._t1) and (len(self._t1) > self._p or not self._t2)
        if not from_t1 and not self._t2:
            raise RuntimeError("evict from empty cache")
        if not from_t1:
            victim = next(iter(self._t2))
            if victim == self._last_touched and self._t1:
                from_t1 = True  # never evict the chunk promoted last access
        if from_t1:
            victim = next(iter(self._t1))
            del self._t1[victim]
            self._b1[victim] = None
        else:
            del self._t2[victim]
            self._b2[victim] = None
        self._trim_ghosts()
        return victim

    def _trim_ghosts(self) -> None:
        c = self.capacity
        while self._b1 and len(self._t1) + len(self._b1) > c:
            del self._b1[next(iter(self._b1))]
        while self._b2 and (
            len(self._t1) + len(self._t2) + len(self._b1) + len(self._b2) > 2 * c
        ):
            del self._b2[next(iter(self._b2))]

    def remove(self, chunk_id: int) -> None:
        if chunk_id in self._t1:
            del self._t1[chunk_id]
        elif chunk_id in self._t2:
            del self._t2[chunk_id]
        else:
            raise KeyError(f"chunk {chunk_id} not resident")

    def __contains__(self, chunk_id: int) -> bool:
        return chunk_id in self._t1 or chunk_id in self._t2

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def resident(self) -> list[int]:
        return list(self._t1) + list(self._t2)

    def clear(self) -> None:
        self._t1.clear()
        self._t2.clear()
        self._b1.clear()
        self._b2.clear()
        self._p = 0.0
        self._last_touched = None


_POLICIES = {
    cls.name: cls
    for cls in (
        LRUPolicy,
        FIFOPolicy,
        CLOCKPolicy,
        LFUPolicy,
        MQPolicy,
        RRIPPolicy,
        ARCPolicy,
    )
}

#: Policies whose constructor takes the cache capacity.
_CAPACITY_AWARE = frozenset({"arc"})


def policy_names() -> list[str]:
    """Every registered policy name, sorted."""
    return sorted(_POLICIES)


def check_policy_name(name: str) -> str:
    """Return ``name`` if it is exactly a registered policy name.

    Configs and scenario specs fingerprint the name as written, so the
    check is exact: ``"LRU"`` would key apart from ``"lru"`` for the same
    machine.  (:func:`make_policy` itself stays case-insensitive.)
    """
    if name not in _POLICIES:
        raise ValueError(f"unknown policy {name!r}; choose from {policy_names()}")
    return name


def make_policy(name: str, capacity: int | None = None) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (``lru``/``rrip``/``arc``/…).

    ``capacity`` is forwarded to capacity-aware policies (ARC) and
    ignored by the rest; :class:`~repro.hierarchy.cache.ChunkCache`
    always passes its own.
    """
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    if name.lower() in _CAPACITY_AWARE:
        return cls(capacity)
    return cls()
