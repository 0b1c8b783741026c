"""Content-addressed on-disk store for experiment results.

Entries live under ``root/<digest[:2]>/<digest>.json``, addressed by
the :class:`~repro.exec.keys.ExperimentKey` digest.  Each entry is a
self-describing JSON document carrying a schema version, the full key
(for audit/debug), and a SHA-256 checksum of its canonical payload:

* **atomic writes** — entries are written to a temp file in the target
  directory and ``os.replace``-d into place, so concurrent writers
  race to an identical whole file and readers never observe a torn
  entry;
* **corruption detection** — truncated/garbled JSON, record mismatches
  and checksum failures are all treated as a *miss*; the broken file is
  unlinked so the slot heals on the next write;
* **schema versioning** — entries written under a different
  ``RESULT_STORE_SCHEMA_VERSION`` are invalidated on load, never
  misread;
* **gc / size cap** — :meth:`ResultStore.gc` evicts least-recently-used
  entries until the store fits a byte budget (enforced automatically
  after writes when ``size_cap_bytes`` is set); reads refresh an
  entry's mtime, so a key that keeps hitting — e.g. the default-config
  point every sensitivity sweep revisits, or a hot serve request —
  outlives cold ones instead of aging out in FIFO write order.

Two payload kinds share the machinery: simulation **results**
(serialised :class:`~repro.simulator.metrics.ExperimentResult`) and
experiment **reports** (rendered-table inputs), so whole-figure
artifacts like the §5.4 discussion analyses can be cached too.

:class:`MemoryStore` is the ephemeral in-process analogue (used when a
run wants dedup across figures without a cache directory); it applies
the same dict round-trip so cached and fresh results are
indistinguishable either way.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass
from typing import Any, Iterator

from repro.exec.keys import ExperimentKey
from repro.experiments.report import ExperimentReport
from repro.simulator.metrics import ExperimentResult
from repro.simulator.serialization import result_from_dict, result_to_dict
from repro.telemetry import get_registry
from repro.util.log import get_logger

__all__ = [
    "RESULT_STORE_SCHEMA_VERSION",
    "StoreStats",
    "ResultStore",
    "MemoryStore",
]

#: Bump when the entry layout changes; older entries become misses.
RESULT_STORE_SCHEMA_VERSION = 1

_RECORD = "repro-exec-entry"
_KIND_RESULT = "result"
_KIND_REPORT = "report"

_LOG = get_logger("exec.store")


def _canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _payload_checksum(payload: Any) -> str:
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


def _report_to_dict(report: ExperimentReport) -> dict[str, Any]:
    # summary is sorted here (not just by json.dumps) so a fresh report
    # round-tripped through this dict renders identically to one that
    # came back from disk — cache temperature can't reorder the footer.
    return {
        "experiment_id": report.experiment_id,
        "title": report.title,
        "headers": list(report.headers),
        "rows": [list(r) for r in report.rows],
        "notes": list(report.notes),
        "summary": dict(sorted(report.summary.items())),
    }


def _report_from_dict(d: dict[str, Any]) -> ExperimentReport:
    return ExperimentReport(
        experiment_id=d["experiment_id"],
        title=d["title"],
        headers=list(d["headers"]),
        rows=[list(r) for r in d["rows"]],
        notes=list(d.get("notes", [])),
        summary=dict(d.get("summary", {})),
    )


@dataclass
class StoreStats:
    """A snapshot of store contents plus this process's traffic."""

    entries: int = 0
    bytes: int = 0
    results: int = 0
    reports: int = 0
    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Read hits that refreshed an entry's mtime (LRU recency touches).
    touches: int = 0
    corrupt_dropped: int = 0
    invalidated: int = 0
    evicted: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "entries": self.entries,
            "bytes": self.bytes,
            "results": self.results,
            "reports": self.reports,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "touches": self.touches,
            "corrupt_dropped": self.corrupt_dropped,
            "invalidated": self.invalidated,
            "evicted": self.evicted,
        }


class ResultStore:
    """Content-addressed experiment cache rooted at a directory."""

    def __init__(
        self,
        root: str | pathlib.Path,
        size_cap_bytes: int | None = None,
    ):
        if size_cap_bytes is not None and size_cap_bytes <= 0:
            raise ValueError("size_cap_bytes must be positive (or None)")
        self.root = pathlib.Path(root)
        self.size_cap_bytes = size_cap_bytes
        self.root.mkdir(parents=True, exist_ok=True)
        # Per-process traffic counters; contents are computed on demand.
        self._traffic = StoreStats()

    # -- paths / iteration --------------------------------------------------------

    def _path(self, digest: str) -> pathlib.Path:
        return self.root / digest[:2] / f"{digest}.json"

    def _entry_paths(self) -> Iterator[pathlib.Path]:
        for shard in sorted(self.root.iterdir()) if self.root.exists() else ():
            if shard.is_dir() and len(shard.name) == 2:
                yield from sorted(shard.glob("*.json"))

    def entries(self) -> Iterator[tuple[str, pathlib.Path]]:
        """Every stored entry as ``(digest, path)``, digest-sorted.

        The enumeration surface the shard tier's partition rebalancer
        walks: entry files are self-contained (checksummed payload +
        key identity), so re-homing one to another partition is a bare
        file move.
        """
        for path in self._entry_paths():
            yield path.stem, path

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    # -- counters -----------------------------------------------------------------

    def _count(self, event: str, n: int = 1) -> None:
        setattr(self._traffic, event, getattr(self._traffic, event) + n)
        metric = {
            "hits": "exec.store.hits",
            "misses": "exec.store.misses",
            "writes": "exec.store.writes",
            "touches": "exec.store.touches",
            "corrupt_dropped": "exec.store.corrupt",
            "invalidated": "exec.store.invalidated",
            "evicted": "exec.store.evictions",
        }[event]
        get_registry().counter(metric).inc(n)

    def _drop(self, path: pathlib.Path, event: str, reason: str) -> None:
        self._count(event)
        _LOG.warning("dropping store entry %s: %s", path.name, reason)
        try:
            path.unlink()
        except OSError:
            pass

    # -- read path ----------------------------------------------------------------

    def _load_payload(self, digest: str, kind: str) -> Any | None:
        path = self._path(digest)
        try:
            raw = path.read_text()
        except OSError:
            self._count("misses")
            return None
        except UnicodeDecodeError:
            self._drop(path, "corrupt_dropped", "not valid UTF-8")
            self._count("misses")
            return None
        try:
            doc = json.loads(raw)
        except ValueError:
            self._drop(path, "corrupt_dropped", "not valid JSON")
            self._count("misses")
            return None
        if not isinstance(doc, dict) or doc.get("record") != _RECORD:
            self._drop(path, "corrupt_dropped", "not a store entry")
            self._count("misses")
            return None
        if doc.get("schema_version") != RESULT_STORE_SCHEMA_VERSION:
            self._drop(
                path,
                "invalidated",
                f"schema v{doc.get('schema_version')} != "
                f"v{RESULT_STORE_SCHEMA_VERSION}",
            )
            self._count("misses")
            return None
        if doc.get("kind") != kind:
            self._count("misses")
            return None
        payload = doc.get("payload")
        if _payload_checksum(payload) != doc.get("payload_sha256"):
            self._drop(path, "corrupt_dropped", "payload checksum mismatch")
            self._count("misses")
            return None
        self._count("hits")
        # Refresh the entry's recency so gc evicts least-recently-*used*
        # entries, not oldest-written ones; best-effort (a concurrent gc
        # may have unlinked the path since we read it).
        try:
            os.utime(path)
            self._count("touches")
        except OSError:
            pass
        return payload

    def get(self, key: ExperimentKey) -> ExperimentResult | None:
        """The cached result for ``key``, or None (any defect is a miss)."""
        payload = self._load_payload(key.digest, _KIND_RESULT)
        if payload is None:
            return None
        try:
            return result_from_dict(payload)
        except (KeyError, TypeError, ValueError):
            self._drop(self._path(key.digest), "corrupt_dropped", "bad result payload")
            return None

    def get_report(self, key: ExperimentKey) -> ExperimentReport | None:
        payload = self._load_payload(key.digest, _KIND_REPORT)
        if payload is None:
            return None
        try:
            return _report_from_dict(payload)
        except (KeyError, TypeError, ValueError):
            self._drop(self._path(key.digest), "corrupt_dropped", "bad report payload")
            return None

    # -- write path ---------------------------------------------------------------

    def _write(self, key: ExperimentKey, kind: str, payload: Any) -> pathlib.Path:
        path = self._path(key.digest)
        doc = {
            "record": _RECORD,
            "schema_version": RESULT_STORE_SCHEMA_VERSION,
            "kind": kind,
            "key": key.as_dict(),
            "payload_sha256": _payload_checksum(payload),
            "payload": payload,
        }
        # Write-then-rename: the temp file lives in the destination
        # directory so the final os.replace is atomic on every POSIX
        # filesystem (no cross-device rename).  The shard directory is
        # made only by the first write into it.
        prefix = f".{key.digest[:12]}."
        try:
            fd, tmp_name = tempfile.mkstemp(
                prefix=prefix, suffix=".tmp", dir=path.parent
            )
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=prefix, suffix=".tmp", dir=path.parent
            )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(doc, sort_keys=True))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._count("writes")
        if self.size_cap_bytes is not None:
            self.gc()
        return path

    def put(self, key: ExperimentKey, result: ExperimentResult) -> pathlib.Path:
        """Serialize and store one result; returns the entry path."""
        return self._write(key, _KIND_RESULT, result_to_dict(result))

    def put_report(self, key: ExperimentKey, report: ExperimentReport) -> pathlib.Path:
        return self._write(key, _KIND_REPORT, _report_to_dict(report))

    # -- maintenance --------------------------------------------------------------

    def gc(self, max_bytes: int | None = None) -> int:
        """Evict least-recently-used entries until the store fits ``max_bytes``.

        Recency is the entry's mtime, which reads refresh — so eviction
        order is LRU, falling back to write order for never-read
        entries.  Defaults to the store's ``size_cap_bytes``; a no-op
        when neither is set.  Returns the number of entries evicted.
        """
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        cap = self.size_cap_bytes if max_bytes is None else max_bytes
        if cap is None:
            return 0
        entries = []
        total = 0
        for path in self._entry_paths():
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        entries.sort()
        evicted = 0
        for _, size, path in entries:
            if total <= cap:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            self._count("evicted", evicted)
            _LOG.info("gc evicted %d entr%s", evicted, "y" if evicted == 1 else "ies")
        return evicted

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> StoreStats:
        """Current contents (walked fresh) plus this process's traffic."""
        snap = StoreStats(**self._traffic.as_dict())
        snap.entries = 0
        snap.bytes = 0
        snap.results = 0
        snap.reports = 0
        for path in self._entry_paths():
            try:
                st_size = path.stat().st_size
                raw = path.read_text()
            except OSError:
                continue
            except UnicodeDecodeError:
                raw = ""
            snap.entries += 1
            snap.bytes += st_size
            try:
                kind = json.loads(raw).get("kind")
            except ValueError:
                continue
            if kind == _KIND_RESULT:
                snap.results += 1
            elif kind == _KIND_REPORT:
                snap.reports += 1
        return snap

    def __repr__(self) -> str:
        return f"ResultStore({self.root}, cap={self.size_cap_bytes})"


class MemoryStore:
    """Ephemeral in-process store with the ResultStore interface.

    Backs single-run deduplication (e.g. ``repro all`` without a cache
    directory): entries survive for the life of the object only.  The
    same serialisation round-trip as the disk store is applied, so a
    cached result is byte-identical whichever store produced it.
    """

    size_cap_bytes = None

    def __init__(self):
        self._entries: dict[str, tuple[str, Any]] = {}
        self._traffic = StoreStats()

    def _count(self, event: str, n: int = 1) -> None:
        setattr(self._traffic, event, getattr(self._traffic, event) + n)
        metric = {
            "hits": "exec.store.hits",
            "misses": "exec.store.misses",
            "writes": "exec.store.writes",
        }[event]
        get_registry().counter(metric).inc(n)

    def _get(self, key: ExperimentKey, kind: str) -> Any | None:
        entry = self._entries.get(key.digest)
        if entry is None or entry[0] != kind:
            self._count("misses")
            return None
        self._count("hits")
        return entry[1]

    def get(self, key: ExperimentKey) -> ExperimentResult | None:
        payload = self._get(key, _KIND_RESULT)
        return None if payload is None else result_from_dict(payload)

    def get_report(self, key: ExperimentKey) -> ExperimentReport | None:
        payload = self._get(key, _KIND_REPORT)
        return None if payload is None else _report_from_dict(payload)

    def put(self, key: ExperimentKey, result: ExperimentResult) -> None:
        self._entries[key.digest] = (_KIND_RESULT, result_to_dict(result))
        self._count("writes")

    def put_report(self, key: ExperimentKey, report: ExperimentReport) -> None:
        self._entries[key.digest] = (_KIND_REPORT, _report_to_dict(report))
        self._count("writes")

    def gc(self, max_bytes: int | None = None) -> int:
        return 0

    def clear(self) -> int:
        n = len(self._entries)
        self._entries.clear()
        return n

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> StoreStats:
        snap = StoreStats(**self._traffic.as_dict())
        snap.entries = len(self._entries)
        snap.results = sum(
            1 for kind, _ in self._entries.values() if kind == _KIND_RESULT
        )
        snap.reports = snap.entries - snap.results
        return snap

    def __repr__(self) -> str:
        return f"MemoryStore({len(self._entries)} entries)"
