"""Pluggable campaign collectors: fold cell results into aggregates.

A :class:`Collector` sees every ``(cell, result)`` pair the campaign
executes — cached or freshly simulated, in whatever order chunks
complete — and folds it into an aggregate.  The contract that makes
collectors safe under chunked, resumable execution is that
:meth:`Collector.add` is **order-insensitive** over cells: a resumed
campaign re-adds every cell from the store into fresh collectors, so a
campaign split across restarts, chunk sizes or worker counts
aggregates identically — the property
``tests/campaign/test_collectors.py`` checks with Hypothesis.

Built-ins (register more with :func:`register_collector`):

``hit-rates``
    Per-level access/hit/miss/writeback totals and the resulting
    campaign-wide hit rates.
``latency``
    SLO-style quantiles (p50/p95/p99, the same log-bucket
    :class:`~repro.telemetry.registry.Histogram` the obs layer uses)
    of per-cell I/O latency and execution time.
``footprint``
    Disk traffic totals: reads, writes, busy time, cache write-backs.
``raw``
    Every per-cell summary row, for piping into external tooling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.telemetry.registry import Histogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.matrix import CampaignCell
    from repro.simulator.metrics import ExperimentResult

__all__ = [
    "Collector",
    "HitRateCollector",
    "LatencyCollector",
    "FootprintCollector",
    "RawDumpCollector",
    "register_collector",
    "collector_names",
    "make_collector",
    "make_collectors",
    "cell_summary",
]


def cell_summary(result: "ExperimentResult") -> dict[str, Any]:
    """The JSON-safe per-cell metric summary manifests and reports use.

    Deterministic for a given experiment key (the engine equivalence
    suite pins ``fast`` bit-identical to ``reference``), so it may
    participate in pinned digests.
    """
    sim = result.sim
    return {
        "io_latency_ms": sim.io_latency_ms,
        "execution_time_ms": sim.execution_time_ms,
        "miss_rates": {
            level: st.miss_rate for level, st in sorted(sim.level_stats.items())
        },
        "levels": {
            level: {
                "accesses": st.accesses,
                "hits": st.hits,
                "misses": st.misses,
                "writebacks": st.writebacks,
            }
            for level, st in sorted(sim.level_stats.items())
        },
        "disk_reads": sim.disk_reads,
        "disk_writes": sim.disk_writes,
    }


class Collector:
    """Base class: fold cell results into one aggregate."""

    #: Registry name; subclasses must override.
    name = ""

    def add(self, cell: "CampaignCell", result: "ExperimentResult") -> None:
        raise NotImplementedError

    def summary(self) -> dict[str, Any]:
        """The JSON-safe aggregate for the campaign report."""
        raise NotImplementedError


class HitRateCollector(Collector):
    name = "hit-rates"

    def __init__(self):
        self.levels: dict[str, dict[str, int]] = {}
        self.cells = 0

    def add(self, cell, result) -> None:
        self.cells += 1
        for level, st in result.sim.level_stats.items():
            agg = self.levels.setdefault(
                level, {"accesses": 0, "hits": 0, "misses": 0, "writebacks": 0}
            )
            agg["accesses"] += st.accesses
            agg["hits"] += st.hits
            agg["misses"] += st.misses
            agg["writebacks"] += st.writebacks

    def summary(self) -> dict[str, Any]:
        return {
            "cells": self.cells,
            "levels": {
                level: {
                    **agg,
                    "hit_rate": agg["hits"] / agg["accesses"]
                    if agg["accesses"]
                    else 0.0,
                }
                for level, agg in sorted(self.levels.items())
            },
        }


class LatencyCollector(Collector):
    name = "latency"

    def __init__(self):
        self.io_ms = Histogram()
        self.exec_ms = Histogram()

    def add(self, cell, result) -> None:
        self.io_ms.observe(result.sim.io_latency_ms)
        self.exec_ms.observe(result.sim.execution_time_ms)

    @staticmethod
    def _slo(hist: Histogram) -> dict[str, float]:
        if not hist.count:
            return {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "count": hist.count,
            "p50": hist.quantile(0.50),
            "p95": hist.quantile(0.95),
            "p99": hist.quantile(0.99),
            "max": hist.max,
        }

    def summary(self) -> dict[str, Any]:
        return {
            "io_latency_ms": self._slo(self.io_ms),
            "execution_time_ms": self._slo(self.exec_ms),
        }


class FootprintCollector(Collector):
    name = "footprint"

    def __init__(self):
        self.disk_reads = 0
        self.disk_writes = 0
        self.disk_busy_ms = 0.0
        self.writebacks = 0

    def add(self, cell, result) -> None:
        sim = result.sim
        self.disk_reads += sim.disk_reads
        self.disk_writes += sim.disk_writes
        self.disk_busy_ms += sim.disk_busy_ms
        self.writebacks += sum(st.writebacks for st in sim.level_stats.values())

    def summary(self) -> dict[str, Any]:
        return {
            "disk_reads": self.disk_reads,
            "disk_writes": self.disk_writes,
            "disk_busy_ms": self.disk_busy_ms,
            "writebacks": self.writebacks,
        }


class RawDumpCollector(Collector):
    name = "raw"

    def __init__(self):
        self.rows: list[dict[str, Any]] = []

    def add(self, cell, result) -> None:
        self.rows.append({"cell": cell.label, **cell_summary(result)})

    def summary(self) -> dict[str, Any]:
        # Sorted at summary time so arrival order (chunking, restarts)
        # cannot leak into the report document.
        return {"rows": sorted(self.rows, key=lambda r: r["cell"])}


_REGISTRY: dict[str, Callable[[], Collector]] = {}


def register_collector(factory: Callable[[], Collector]) -> Callable[[], Collector]:
    """Register a collector factory under its ``name`` (decorator-friendly)."""
    probe = factory()
    if not probe.name:
        raise ValueError(f"{factory!r} must produce a collector with a name")
    if probe.name in _REGISTRY:
        raise ValueError(f"collector {probe.name!r} is already registered")
    _REGISTRY[probe.name] = factory
    return factory


for _factory in (HitRateCollector, LatencyCollector, FootprintCollector, RawDumpCollector):
    register_collector(_factory)


def collector_names() -> list[str]:
    return sorted(_REGISTRY)


def make_collector(name: str) -> Collector:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(
            f"unknown collector {name!r}; choose from {collector_names()}"
        ) from None


def make_collectors(names: Iterable[str]) -> list[Collector]:
    return [make_collector(n) for n in names]
