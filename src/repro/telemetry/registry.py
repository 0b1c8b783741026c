"""The pipeline-wide metrics registry.

Three instrument kinds cover what the mapper and simulator need to
report (the quantities the paper's evaluation aggregates — merge/evict
counts, affinity-graph sizes, load-balance spread, per-level cache
counters):

* :class:`Counter` — monotonically increasing event counts
  (``clustering.merges``, ``balancing.moves``);
* :class:`Gauge` — last-value measurements (``graph.nodes``);
* :class:`Histogram` — value distributions summarised as
  count/sum/min/max (``balancing.imbalance``, phase durations).

Instruments have hierarchical dotted names plus optional labels, e.g.
``clustering.merges{level=L2}``; ``registry.counter(name, **labels)``
is get-or-create, so instrumentation sites never need to coordinate.

Disabled state: :data:`NULL_REGISTRY` hands out shared no-op
instruments whose methods do nothing, so instrumented code costs one
dict lookup and a no-op call per site when telemetry is off.  The
*active* registry is module-global (:func:`get_registry` /
:func:`use_registry`) and defaults to the null
registry; everything here is single-threaded by design, like the rest
of the simulator.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "label_snapshot",
    "use_registry",
    "thread_registry",
]

#: Hierarchical instrument names: dotted lowercase words.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"bad metric name {name!r}: use dotted lowercase words "
            "(e.g. 'clustering.merges')"
        )
    return name


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A last-value measurement."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.value})"


#: Fixed log-spaced bucket upper bounds shared by every histogram:
#: four buckets per decade from 1e-9 to 1e9 (10 ** (e / 4) for
#: e in -36..36), plus one implicit overflow bucket past the last
#: bound.  Global constants are what make bucket counts *compose*:
#: any two histograms — a worker's and the parent's, this run's and
#: last run's — share bucket edges, so merging is element-wise
#: addition (:meth:`Histogram.merge_summary`).  The span covers
#: sub-nanosecond phase timings through multi-gigabyte byte counts.
BUCKET_BOUNDS: tuple[float, ...] = tuple(10.0 ** (e / 4.0) for e in range(-36, 37))

#: Total bucket count including the overflow bucket.
_NBUCKETS = len(BUCKET_BOUNDS) + 1


class Histogram:
    """A streaming distribution summary: count/sum/min/max + buckets.

    Fixed log-spaced bucket counts (:data:`BUCKET_BOUNDS`) back the
    :meth:`quantile` estimates the SLO reports need (p50/p95/p99 of
    per-stage latencies) while staying exactly composable under
    :meth:`merge_summary` — no per-observation storage, and worker
    snapshots still fold into the parent registry by addition.
    """

    __slots__ = ("count", "sum", "min", "max", "_buckets")

    def __init__(self):
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._buckets = [0] * _NBUCKETS

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._buckets[bisect_left(BUCKET_BOUNDS, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_counts(self) -> list[int]:
        """Per-bucket observation counts (last entry is the overflow)."""
        return list(self._buckets)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``) from the buckets.

        Linear interpolation inside the holding bucket, clamped to the
        exact observed ``[min, max]`` so single-observation histograms
        and tail quantiles never report a value outside the data.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile q must be in (0, 1], got {q}")
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for idx, bucket_count in enumerate(self._buckets):
            if not bucket_count:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                lo = BUCKET_BOUNDS[idx - 1] if idx > 0 else 0.0
                hi = (
                    BUCKET_BOUNDS[idx]
                    if idx < len(BUCKET_BOUNDS)
                    else max(self.max, lo)
                )
                fraction = (target - previous) / bucket_count
                value = lo + (hi - lo) * fraction
                return min(max(value, self.min), self.max)
        return self.max

    def merge_summary(
        self,
        count: int,
        total: float,
        minimum: float,
        maximum: float,
        buckets: Mapping[str, int] | None = None,
    ) -> None:
        """Fold another histogram's summary into this one.

        Count/sum/min/max compose exactly, and — because every
        histogram shares :data:`BUCKET_BOUNDS` — so do bucket counts,
        which is what lets process-pool workers ship their registry
        snapshots back to the parent
        (:meth:`MetricsRegistry.merge_snapshot`).  ``buckets`` is the
        sparse ``{bucket_index: count}`` mapping :meth:`as_dict`
        emits; a summary without one (a pre-bucket snapshot) degrades
        gracefully by crediting all observations to the mean's bucket.
        """
        if not count:
            return
        self.count += count
        self.sum += total
        if minimum < self.min:
            self.min = minimum
        if maximum > self.max:
            self.max = maximum
        if buckets:
            for raw_idx, bucket_count in buckets.items():
                idx = int(raw_idx)
                if not 0 <= idx < _NBUCKETS:
                    raise ValueError(f"bucket index {idx} out of range")
                self._buckets[idx] += int(bucket_count)
        else:
            mean = total / count
            self._buckets[bisect_left(BUCKET_BOUNDS, mean)] += count

    def as_dict(self) -> dict[str, Any]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            # Sparse: only occupied buckets, keyed by bucket index (JSON
            # object keys are strings).  merge_summary accepts this form.
            "buckets": {
                str(idx): bucket_count
                for idx, bucket_count in enumerate(self._buckets)
                if bucket_count
            },
        }

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, sum={self.sum})"


class _NullInstrument:
    """Shared do-nothing stand-in for every instrument kind."""

    __slots__ = ()
    value = 0
    count = 0
    sum = 0.0
    min = 0.0
    max = 0.0
    mean = 0.0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def as_dict(self) -> dict[str, float]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()

#: Instrument key: (name, sorted label items).
_Key = tuple


def _key(name: str, labels: dict[str, Any]) -> _Key:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


class MetricsRegistry:
    """Hierarchically named counters/gauges/histograms with labels.

    Also keeps the stack of open :func:`~repro.telemetry.profiler.phase`
    names that labels this registry's ``phase.duration_seconds`` series.
    """

    enabled = True

    def __init__(self):
        self._counters: dict[_Key, Counter] = {}
        self._gauges: dict[_Key, Gauge] = {}
        self._histograms: dict[_Key, Histogram] = {}
        self._kinds: dict[str, str] = {}
        self.open_phases: list[str] = []

    def _claim(self, name: str, kind: str) -> None:
        """Validate a new instrument name; one name, one kind (Prometheus rule)."""
        _check_name(name)
        existing = self._kinds.setdefault(name, kind)
        if existing != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {existing}, "
                f"cannot reuse as a {kind}"
            )

    # -- instrument access --------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = _key(name, labels)
        inst = self._counters.get(key)
        if inst is None:
            self._claim(name, "counter")
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels) -> Gauge:
        key = _key(name, labels)
        inst = self._gauges.get(key)
        if inst is None:
            self._claim(name, "gauge")
            inst = self._gauges[key] = Gauge()
        return inst

    def histogram(self, name: str, **labels) -> Histogram:
        key = _key(name, labels)
        inst = self._histograms.get(key)
        if inst is None:
            self._claim(name, "histogram")
            inst = self._histograms[key] = Histogram()
        return inst

    # -- introspection ------------------------------------------------------------

    def counters(self) -> Iterator[tuple[str, dict[str, str], Counter]]:
        for (name, labels), inst in sorted(self._counters.items()):
            yield name, dict(labels), inst

    def gauges(self) -> Iterator[tuple[str, dict[str, str], Gauge]]:
        for (name, labels), inst in sorted(self._gauges.items()):
            yield name, dict(labels), inst

    def histograms(self) -> Iterator[tuple[str, dict[str, str], Histogram]]:
        for (name, labels), inst in sorted(self._histograms.items()):
            yield name, dict(labels), inst

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def merge_snapshot(self, snapshot: dict[str, list[dict[str, Any]]]) -> None:
        """Fold an :meth:`as_dict` snapshot into this registry.

        Counters and histogram summaries add; gauges take the
        snapshot's value (last write wins — merge snapshots in a
        deterministic order).  This is how per-task registries from
        process-pool workers flow back into the run's registry, so a
        parallel run's manifest carries the same counter values a
        serial run would.
        """
        for entry in snapshot.get("counters", []):
            # inc(0) still materialises the series: a zero-valued counter
            # a serial run would declare must exist after a merge too.
            self.counter(entry["name"], **entry.get("labels", {})).inc(
                entry["value"]
            )
        for entry in snapshot.get("gauges", []):
            self.gauge(entry["name"], **entry.get("labels", {})).set(entry["value"])
        for entry in snapshot.get("histograms", []):
            self.histogram(entry["name"], **entry.get("labels", {})).merge_summary(
                entry.get("count", 0),
                entry.get("sum", 0.0),
                entry.get("min", float("inf")),
                entry.get("max", float("-inf")),
                entry.get("buckets"),
            )

    def as_dict(self) -> dict[str, list[dict[str, Any]]]:
        """JSON-safe dump of every instrument (manifest ``metrics`` section)."""
        return {
            "counters": [
                {"name": n, "labels": l, "value": c.value}
                for n, l, c in self.counters()
            ],
            "gauges": [
                {"name": n, "labels": l, "value": g.value}
                for n, l, g in self.gauges()
            ],
            "histograms": [
                {"name": n, "labels": l, **h.as_dict()}
                for n, l, h in self.histograms()
            ],
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms)"
        )


def label_snapshot(
    snapshot: dict[str, list[dict[str, Any]]], **labels: str
) -> dict[str, list[dict[str, Any]]]:
    """A copy of an :meth:`MetricsRegistry.as_dict` snapshot, relabelled.

    Merges ``labels`` into every entry's label set (entry-level labels
    win on collision, so a series that already carries the label keeps
    it).  This is how the shard router turns N per-worker snapshots
    into one cluster registry: label each with ``shard=<id>``, then
    :meth:`~MetricsRegistry.merge_snapshot` them all — same-named
    series stay distinct per shard, histograms still compose.
    """
    str_labels = {k: str(v) for k, v in labels.items()}
    return {
        section: [
            {**entry, "labels": {**str_labels, **entry.get("labels", {})}}
            for entry in entries
        ]
        for section, entries in snapshot.items()
    }


class NullRegistry:
    """The disabled registry: every instrument is a shared no-op."""

    enabled = False

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def counters(self):
        return iter(())

    def gauges(self):
        return iter(())

    def histograms(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def as_dict(self) -> dict[str, list]:
        return {"counters": [], "gauges": [], "histograms": []}

    def __repr__(self) -> str:
        return "NullRegistry()"


#: The process-wide disabled registry (the default active registry).
NULL_REGISTRY = NullRegistry()

_active: MetricsRegistry | NullRegistry = NULL_REGISTRY

#: Per-thread override of the process-global active registry, so a
#: worker thread can collect into a private registry (run_payload's
#: snapshot repatriation) without hijacking what every other thread —
#: e.g. the serve event loop rendering /metrics — sees.
_LOCAL = threading.local()


def get_registry() -> MetricsRegistry | NullRegistry:
    """The active registry instrumentation sites record into."""
    override = getattr(_LOCAL, "registry", None)
    return _active if override is None else override


@contextmanager
def use_registry(registry: MetricsRegistry | NullRegistry):
    """Scope ``registry`` as the active one, restoring the previous on exit."""
    global _active
    previous = _active
    _active = registry
    try:
        yield registry
    finally:
        _active = previous


@contextmanager
def thread_registry(registry: MetricsRegistry | NullRegistry):
    """Scope ``registry`` as active *for the current thread only*.

    Other threads keep seeing the process-global registry.  This is the
    isolation :func:`repro.exec.executor.run_payload` needs when it runs
    in a backend thread of a long-lived server: its private collection
    registry must not leak into concurrently served ``/metrics`` reads.
    """
    previous = getattr(_LOCAL, "registry", None)
    _LOCAL.registry = registry
    try:
        yield registry
    finally:
        _LOCAL.registry = previous
