"""Event-level tracing, record/replay and mapping diffs for the simulator.

The simulator aggregates per-access outcomes away; this package makes
them observable and reusable:

* :mod:`repro.trace.events` — the compact event model (ACCESS, FILL,
  EVICT, PREFETCH, WRITEBACK, SYNC);
* :mod:`repro.trace.recorder` — the recorder protocol the engine emits
  into, with a zero-overhead disabled state and an in-memory collector;
* :mod:`repro.trace.export` — JSONL event logs and Chrome-trace
  (``chrome://tracing`` / Perfetto) timelines per client;
* :mod:`repro.trace.replay` — versioned workload artifacts that freeze
  the expensive mapping stage for fast what-if re-simulation;
* :mod:`repro.trace.diff` — align two traces of one workload under
  different mappers and explain where the win comes from.

CLI: ``repro trace record | export | replay | diff``.
"""

from repro.trace.diff import ChunkMove, TraceDiff, diff_artifacts, diff_traces
from repro.trace.events import (
    MISS_LEVEL,
    Access,
    EventKind,
    Evict,
    Fill,
    Prefetch,
    Sync,
    TraceEvent,
    Writeback,
    event_from_dict,
    hit_level_label,
)
from repro.trace.export import (
    EVENTS_FORMAT_VERSION,
    read_events_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.trace.recorder import MemoryRecorder, NullRecorder, TraceRecorder
from repro.trace.replay import (
    TRACE_ARTIFACT_VERSION,
    TraceArtifact,
    load_artifact,
    record,
    replay,
    save_artifact,
    with_cache_overrides,
)

__all__ = [
    "MISS_LEVEL",
    "EventKind",
    "TraceEvent",
    "Access",
    "Fill",
    "Evict",
    "Prefetch",
    "Writeback",
    "Sync",
    "event_from_dict",
    "hit_level_label",
    "TraceRecorder",
    "NullRecorder",
    "MemoryRecorder",
    "EVENTS_FORMAT_VERSION",
    "write_events_jsonl",
    "read_events_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "TRACE_ARTIFACT_VERSION",
    "TraceArtifact",
    "record",
    "save_artifact",
    "load_artifact",
    "replay",
    "with_cache_overrides",
    "ChunkMove",
    "TraceDiff",
    "diff_traces",
    "diff_artifacts",
]
