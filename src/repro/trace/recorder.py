"""Recorder protocol the simulation engine emits events into.

The engine (:func:`repro.simulator.engine.simulate`) takes an optional
``recorder``; ``None`` (the default) and :class:`NullRecorder` are the
*disabled* states — the engine detects them and skips every emission
site, so tracing costs nothing unless asked for.  :class:`MemoryRecorder`
collects the full event list for export, replay verification and
mapping diffs.

The protocol is method-per-event rather than object-per-event so a
recorder can choose its own storage (append dataclasses, stream to a
file, count into histograms) without the engine allocating anything on
behalf of disabled or counting recorders.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Protocol, runtime_checkable

from repro.trace.events import (
    Access,
    Evict,
    Fill,
    Prefetch,
    Sync,
    TraceEvent,
    Writeback,
)

__all__ = ["TraceRecorder", "NullRecorder", "MemoryRecorder"]


@runtime_checkable
class TraceRecorder(Protocol):
    """What the engine calls at each instrumentation site.

    ``enabled`` is the zero-overhead switch: the engine normalises any
    recorder whose ``enabled`` is false to ``None`` once, before the hot
    loop, so a disabled recorder's methods are never invoked.
    """

    enabled: bool

    def access(
        self,
        step: int,
        client: int,
        chunk: int,
        hit_level: int,
        cost_ms: float,
        write: bool = False,
        cold: bool = False,
    ) -> None: ...

    def fill(self, step: int, client: int, cache: str, level: int, chunk: int) -> None: ...

    def evict(
        self,
        step: int,
        client: int,
        cache: str,
        level: int,
        victim: int,
        dirty: bool = False,
    ) -> None: ...

    def prefetch(self, step: int, client: int, cache: str, chunk: int) -> None: ...

    def writeback(self, step: int, client: int, chunk: int, cost_ms: float) -> None: ...

    def sync(self, client: int, count: int, cost_ms: float) -> None: ...


class NullRecorder:
    """A recorder that records nothing (explicit disabled state)."""

    enabled = False

    def access(self, *args, **kwargs) -> None:  # pragma: no cover - never called
        pass

    def fill(self, *args, **kwargs) -> None:  # pragma: no cover - never called
        pass

    def evict(self, *args, **kwargs) -> None:  # pragma: no cover - never called
        pass

    def prefetch(self, *args, **kwargs) -> None:  # pragma: no cover - never called
        pass

    def writeback(self, *args, **kwargs) -> None:  # pragma: no cover - never called
        pass

    def sync(self, *args, **kwargs) -> None:  # pragma: no cover - never called
        pass


class MemoryRecorder:
    """Collect every event in order."""

    enabled = True

    __slots__ = ("events",)

    def __init__(self):
        self.events: list[TraceEvent] = []

    # -- TraceRecorder protocol ---------------------------------------------------

    def access(
        self,
        step: int,
        client: int,
        chunk: int,
        hit_level: int,
        cost_ms: float,
        write: bool = False,
        cold: bool = False,
    ) -> None:
        self.events.append(
            Access(step, client, chunk, hit_level, cost_ms, write, cold)
        )

    def fill(self, step: int, client: int, cache: str, level: int, chunk: int) -> None:
        self.events.append(Fill(step, client, cache, level, chunk))

    def evict(
        self,
        step: int,
        client: int,
        cache: str,
        level: int,
        victim: int,
        dirty: bool = False,
    ) -> None:
        self.events.append(Evict(step, client, cache, level, victim, dirty))

    def prefetch(self, step: int, client: int, cache: str, chunk: int) -> None:
        self.events.append(Prefetch(step, client, cache, chunk))

    def writeback(self, step: int, client: int, chunk: int, cost_ms: float) -> None:
        self.events.append(Writeback(step, client, chunk, cost_ms))

    def sync(self, client: int, count: int, cost_ms: float) -> None:
        self.events.append(Sync(client, count, cost_ms))

    # -- queries ------------------------------------------------------------------

    def accesses(self) -> list[Access]:
        return [e for e in self.events if isinstance(e, Access)]

    def of_kind(self, cls: type[TraceEvent]) -> list[TraceEvent]:
        return [e for e in self.events if isinstance(e, cls)]

    def hit_level_counts(self) -> Counter[int]:
        """Access count per hit level (``-1`` bucket = full misses)."""
        return Counter(e.hit_level for e in self.accesses())

    def extend(self, events: Iterable[TraceEvent]) -> None:
        self.events.extend(events)

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self) -> str:
        return f"MemoryRecorder({len(self.events)} events)"
