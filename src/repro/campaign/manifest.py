"""The persisted campaign manifest: incremental, atomic, resumable.

One manifest JSON document records everything a campaign run learns:
the fingerprinted spec, per-cell key/status/result-digest/summary,
executor degradation/retry events, store statistics before and after,
and wall-clock totals.  :class:`ManifestWriter` rewrites the whole
document atomically (write-then-rename, the result-store discipline)
after every completed chunk, so a ``kill -9`` mid-campaign loses at
most the chunk in flight — and loses *no simulations at all* when a
persistent result store is attached, because results land in the store
before the manifest mentions them.

:func:`manifest_digest` hashes only the deterministic core — the spec
fingerprint and each cell's key and result digest plus metric summary —
never statuses or timings.  An interrupted-then-resumed campaign
therefore reproduces the digest of an uninterrupted one even though its
cells say ``cached`` where the first run said ``simulated``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any, Mapping

from repro.util.fingerprint import canonical_json

__all__ = [
    "CAMPAIGN_MANIFEST_VERSION",
    "MANIFEST_RECORD",
    "new_manifest",
    "manifest_digest",
    "load_manifest",
    "ManifestWriter",
]

CAMPAIGN_MANIFEST_VERSION = 1
MANIFEST_RECORD = "repro-campaign-manifest"

#: Per-cell lifecycle states the manifest records.
CELL_STATUSES = ("pending", "cached", "simulated", "failed")


def new_manifest(spec_doc: Mapping[str, Any], fingerprint: str) -> dict[str, Any]:
    """A fresh manifest document for one campaign run."""
    return {
        "record": MANIFEST_RECORD,
        "schema_version": CAMPAIGN_MANIFEST_VERSION,
        "name": spec_doc.get("name", ""),
        "fingerprint": fingerprint,
        "spec": dict(spec_doc),
        "status": "running",
        "total_cells": 0,
        "completed": 0,
        "cells": {},
        "events": [],
        "store": {},
        "wall_clock_s": None,
        "cells_per_s": None,
    }


def manifest_digest(doc: Mapping[str, Any]) -> str:
    """Hex SHA-256 of the manifest's deterministic core.

    Covers the spec fingerprint and, per cell, the experiment key and
    the result digest + metric summary.  Excludes statuses (cache
    temperature), events, store stats and wall-clock — everything a
    restart or a different worker count may legitimately change.
    """
    core = {
        "fingerprint": doc.get("fingerprint"),
        "cells": {
            label: {
                "key": cell.get("key"),
                "digest": cell.get("digest"),
                "summary": cell.get("summary"),
            }
            for label, cell in sorted(doc.get("cells", {}).items())
        },
    }
    return hashlib.sha256(canonical_json(core).encode("utf-8")).hexdigest()


def load_manifest(path: str | pathlib.Path) -> dict[str, Any]:
    """Read and shape-check a manifest document."""
    p = pathlib.Path(path)
    if p.is_dir():
        p = p / "manifest.json"
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{p}: truncated or corrupt manifest: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("record") != MANIFEST_RECORD:
        raise ValueError(f"{p}: not a {MANIFEST_RECORD} document")
    version = doc.get("schema_version")
    if version != CAMPAIGN_MANIFEST_VERSION:
        raise ValueError(
            f"{p}: manifest schema v{version!r} != v{CAMPAIGN_MANIFEST_VERSION}"
        )
    return doc


class ManifestWriter:
    """Owns one manifest document and its atomic on-disk mirror.

    ``path=None`` keeps the document in memory only (used by tests and
    ad-hoc API runs); every :meth:`save` otherwise rewrites the file
    via write-then-rename so readers — ``repro campaign status`` polls
    this file while a run is live — never observe a torn document.
    """

    def __init__(self, doc: dict[str, Any], path: str | pathlib.Path | None = None):
        self.doc = doc
        self.path = pathlib.Path(path) if path is not None else None

    def save(self) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{self.path.name}.", suffix=".tmp", dir=self.path.parent
        )
        try:
            # One line through the C encoder: ``indent`` would force
            # the pure-Python encoder, and a chunked campaign rewrites
            # the whole document after every chunk while the pool idles.
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(self.doc, sort_keys=True) + "\n")
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- update helpers -----------------------------------------------------------

    def set_cells(self, cells: Mapping[str, Mapping[str, Any]]) -> None:
        """Declare the full cell set (all ``pending``) before execution."""
        self.doc["cells"] = {
            label: dict(cell) for label, cell in sorted(cells.items())
        }
        self.doc["total_cells"] = len(self.doc["cells"])

    def update_cell(self, label: str, **fields: Any) -> None:
        cell = self.doc["cells"][label]
        cell.update({k: v for k, v in fields.items() if v is not None})
        self.doc["completed"] = sum(
            1 for c in self.doc["cells"].values() if c.get("status") != "pending"
        )

    def add_events(self, events: list[str]) -> None:
        if events:
            self.doc["events"].extend(events)

    def finish(self, status: str, wall_clock_s: float) -> None:
        self.doc["status"] = status
        self.doc["wall_clock_s"] = round(wall_clock_s, 3)
        completed = self.doc.get("completed", 0)
        self.doc["cells_per_s"] = (
            round(completed / wall_clock_s, 2) if wall_clock_s > 0 else None
        )
        self.doc["digest"] = manifest_digest(self.doc)
