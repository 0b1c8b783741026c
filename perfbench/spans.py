"""Benchmark-side layer spans and the per-layer table built from them.

Spans go into the benchmark's own :class:`repro.obs.tracer.Tracer`
instance, recorded directly rather than activated process-wide, so the
program's internal ``phase()`` spans never mix in.  Nothing under
``src/`` is instrumented: a span is opened by benchmark code around a
call into a layer's function.  Calls made *inside* the program (the
worker's workload build, mapper passes, streams and simulate) have no
public seam, so :meth:`LayerSpans.patched` swaps the module or class
attribute the caller looks up for a spanned wrapper, for the duration
of a traced replay only.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from typing import Any, Callable, Iterator

from repro.obs.context import new_request_id, new_span_id
from repro.obs.tracer import Span, Tracer


class LayerSpans:
    """Opens named layer spans; ``enabled=False`` makes them free no-ops."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.tracer = Tracer(capacity=1 << 20)
        self._stack: list[str] = []
        self._trace_id = new_request_id()

    @contextlib.contextmanager
    def __call__(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Time the block as layer ``name``; the yielded dict adds attrs."""
        if not self.enabled:
            yield attrs
            return
        span_id = new_span_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start_unix = time.time()
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.tracer.record(
                Span(
                    name=name,
                    trace_id=self._trace_id,
                    span_id=span_id,
                    parent_id=parent,
                    start_unix=start_unix,
                    elapsed_s=elapsed,
                    pid=os.getpid(),
                    attrs=attrs,
                )
            )

    def wrap(
        self,
        fn: Callable,
        name: str,
        describe: Callable[[Any], dict[str, Any]] | None = None,
    ) -> Callable:
        """``fn`` with every call timed as layer ``name``."""

        def spanned(*args, **kwargs):
            with self(name) as attrs:
                out = fn(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(out))
                return out

        return spanned

    @contextlib.contextmanager
    def patched(self, targets) -> Iterator[None]:
        """Replace ``(owner, attr, layer[, describe])`` targets with spanned wrappers.

        ``layer`` is a layer name, or a factory ``(spans, original) ->
        replacement`` for a call that needs more than one span around it.
        """
        saved = []
        try:
            for owner, attr, layer, *describe in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                if callable(layer):
                    replacement = layer(self, original)
                else:
                    replacement = self.wrap(original, layer, describe[0] if describe else None)
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def spans(self) -> list[Span]:
        if self.tracer.dropped:
            raise RuntimeError(f"span ring overflowed ({self.tracer.dropped} dropped)")
        return self.tracer.spans()


def self_times(spans: list[Span]) -> dict[str, list[float]]:
    """Per layer, each span's self time (seconds): duration minus children."""
    child_total: dict[str, float] = {}
    for s in spans:
        if s.parent_id is not None:
            child_total[s.parent_id] = child_total.get(s.parent_id, 0.0) + s.elapsed_s
    out: dict[str, list[float]] = {}
    for s in spans:
        out.setdefault(s.name, []).append(s.elapsed_s - child_total.get(s.span_id, 0.0))
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_table(spans: list[Span], wall_s: float) -> dict[str, Any]:
    """Count, self-time p50/p90 and share of ``wall_s`` for every layer.

    ``unattributed`` is the wall time no top-level span claims: the
    benchmark's own glue between layer calls.
    """
    rows = {}
    for name, selfs in sorted(self_times(spans).items()):
        rows[name] = {
            "count": len(selfs),
            "self_ms_p50": 1000.0 * statistics.median(selfs),
            "self_ms_p90": 1000.0 * percentile(selfs, 90),
            "share": sum(selfs) / wall_s,
        }
    claimed = sum(s.elapsed_s for s in spans if s.parent_id is None)
    return {
        "wall_s": wall_s,
        "rows": rows,
        "unattributed_frac": max(0.0, wall_s - claimed) / wall_s,
    }


def format_table(title: str, table: dict[str, Any]) -> str:
    lines = [
        f"{title}  (wall {table['wall_s']:.3f} s)",
        f"  {'layer':34s} {'count':>7s} {'p50 ms':>9s} {'p90 ms':>9s} {'share':>7s}",
    ]
    for name, row in table["rows"].items():
        lines.append(
            f"  {name:34s} {row['count']:7d} {row['self_ms_p50']:9.3f}"
            f" {row['self_ms_p90']:9.3f} {100 * row['share']:6.1f}%"
        )
    lines.append(
        f"  {'unattributed':34s} {'':7s} {'':9s} {'':9s}"
        f" {100 * table['unattributed_frac']:6.1f}%"
    )
    return "\n".join(lines)
