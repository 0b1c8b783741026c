"""Structured run manifests: one JSON document per telemetry-enabled run.

A manifest freezes everything needed to interpret (and later diff) a
run: the config fingerprint (shared with the trace artifacts), git
commit, seed and library versions, every metric in the registry, the
phase-timing tree (a view of the ``phase.duration_seconds``
histogram), and the machine-readable ``summary`` of each
:class:`~repro.experiments.report.ExperimentReport` produced — so a
figure/table run's numbers are consumable without scraping rendered
tables.

Validation is hand-rolled (:func:`validate_manifest`) against the
layout below, keeping the repo dependency-free; CI validates every
smoke-run manifest with it.
"""

from __future__ import annotations

import json
import pathlib
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.telemetry.registry import MetricsRegistry, NullRegistry

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "save_manifest",
    "load_manifest",
    "validate_manifest",
    "ManifestDiff",
    "diff_manifests",
]

#: Bump when the manifest layout changes; readers reject newer files.
MANIFEST_SCHEMA_VERSION = 1

_RECORD = "repro-run-manifest"


def _git_commit() -> str | None:
    """Current commit hash, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=pathlib.Path(__file__).parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _versions() -> dict[str, str]:
    from repro import __version__

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "unavailable"
    return {
        "repro": __version__,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _phase_tree(registry: MetricsRegistry | NullRegistry) -> list[dict[str, Any]]:
    """The ``phases`` tree, derived from ``phase.duration_seconds``.

    Each series' ``phase`` label is a ``/``-joined path; a node's
    ``calls`` and ``elapsed_s`` are the count and sum of every series
    at its path, summed over any other label (e.g. ``shard``).
    Siblings are in name order.
    """
    root: dict[str, dict[str, Any]] = {}
    for name, labels, hist in registry.histograms():
        if name != "phase.duration_seconds":
            continue
        siblings = root
        for part in labels["phase"].split("/"):
            node = siblings.setdefault(
                part, {"name": part, "elapsed_s": 0.0, "calls": 0, "children": {}}
            )
            siblings = node["children"]
        node["calls"] += hist.count
        node["elapsed_s"] += hist.sum

    def emit(nodes: dict[str, dict[str, Any]]) -> list[dict[str, Any]]:
        out = []
        for part in sorted(nodes):
            node = dict(nodes[part])
            children = node.pop("children")
            if children:
                node["children"] = emit(children)
            out.append(node)
        return out

    return emit(root)


def build_manifest(
    registry: MetricsRegistry | NullRegistry,
    *,
    config=None,
    command: str | None = None,
    argv: list[str] | None = None,
    reports: Iterable[Any] = (),
    meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the manifest document for one run.

    ``config`` is a :class:`~repro.experiments.config.SystemConfig`
    (fingerprinted with the same serialisation the trace artifacts use);
    ``reports`` are :class:`~repro.experiments.report.ExperimentReport`
    objects whose ``summary``/``notes`` are embedded.
    """
    fingerprint = None
    seed = None
    if config is not None:
        from repro.util.fingerprint import config_fingerprint

        fingerprint = config_fingerprint(config)
        seed = config.seed
    doc: dict[str, Any] = {
        "record": _RECORD,
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_unix": time.time(),
        "command": command,
        "argv": list(argv) if argv is not None else None,
        "git_commit": _git_commit(),
        "versions": _versions(),
        "seed": seed,
        "config": fingerprint,
        "phases": _phase_tree(registry),
        "metrics": registry.as_dict(),
        "reports": [
            {
                "experiment_id": r.experiment_id,
                "title": r.title,
                "summary": dict(r.summary),
                "notes": list(r.notes),
            }
            for r in reports
        ],
        "meta": dict(meta or {}),
    }
    return doc


def save_manifest(path: str | pathlib.Path, doc: dict[str, Any]) -> None:
    pathlib.Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_manifest(path: str | pathlib.Path) -> dict[str, Any]:
    """Load and validate a manifest written by :func:`save_manifest`."""
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    problems = validate_manifest(doc)
    if problems:
        raise ValueError(f"{path}: invalid manifest: " + "; ".join(problems))
    return doc


def _check_metric_entries(
    entries: Any, kind: str, value_keys: tuple[str, ...], problems: list[str]
) -> None:
    if not isinstance(entries, list):
        problems.append(f"metrics.{kind} must be a list")
        return
    for i, entry in enumerate(entries):
        where = f"metrics.{kind}[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where} must be an object")
            continue
        if not isinstance(entry.get("name"), str):
            problems.append(f"{where}.name must be a string")
        if not isinstance(entry.get("labels"), dict):
            problems.append(f"{where}.labels must be an object")
        for key in value_keys:
            if not isinstance(entry.get(key), (int, float)):
                problems.append(f"{where}.{key} must be a number")


def _check_phase_nodes(nodes: Any, where: str, problems: list[str]) -> None:
    if not isinstance(nodes, list):
        problems.append(f"{where} must be a list")
        return
    for i, node in enumerate(nodes):
        here = f"{where}[{i}]"
        if not isinstance(node, dict):
            problems.append(f"{here} must be an object")
            continue
        if not isinstance(node.get("name"), str):
            problems.append(f"{here}.name must be a string")
        if not isinstance(node.get("elapsed_s"), (int, float)):
            problems.append(f"{here}.elapsed_s must be a number")
        if not isinstance(node.get("calls", 1), int):
            problems.append(f"{here}.calls must be an integer")
        if "children" in node:
            _check_phase_nodes(node["children"], f"{here}.children", problems)


def validate_manifest(doc: Any) -> list[str]:
    """Schema-check a manifest; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["manifest must be a JSON object"]
    if doc.get("record") != _RECORD:
        problems.append(f"record must be {_RECORD!r}")
    version = doc.get("schema_version")
    if not isinstance(version, int):
        problems.append("schema_version must be an integer")
    elif version > MANIFEST_SCHEMA_VERSION:
        problems.append(
            f"schema v{version} is newer than this build's "
            f"v{MANIFEST_SCHEMA_VERSION}"
        )
    versions = doc.get("versions")
    if not isinstance(versions, dict) or not all(
        isinstance(v, str) for v in versions.values()
    ):
        problems.append("versions must be an object of strings")
    if doc.get("config") is not None and not isinstance(doc["config"], dict):
        problems.append("config must be an object or null")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("metrics must be an object")
    else:
        _check_metric_entries(
            metrics.get("counters"), "counters", ("value",), problems
        )
        _check_metric_entries(metrics.get("gauges"), "gauges", ("value",), problems)
        _check_metric_entries(
            metrics.get("histograms"), "histograms", ("count", "sum"), problems
        )
    _check_phase_nodes(doc.get("phases"), "phases", problems)
    reports = doc.get("reports")
    if not isinstance(reports, list):
        problems.append("reports must be a list")
    else:
        for i, r in enumerate(reports):
            if not isinstance(r, dict) or not isinstance(
                r.get("experiment_id"), str
            ):
                problems.append(f"reports[{i}] must have a string experiment_id")
            elif not isinstance(r.get("summary"), dict):
                problems.append(f"reports[{i}].summary must be an object")
    return problems


# -- diffs --------------------------------------------------------------------------


def _metric_map(doc: dict, kind: str) -> dict[tuple, dict]:
    out = {}
    for entry in doc.get("metrics", {}).get(kind, []):
        key = (entry["name"], tuple(sorted(entry.get("labels", {}).items())))
        out[key] = entry
    return out


def _flatten_phases(doc: dict) -> dict[str, float]:
    out: dict[str, float] = {}

    def walk(node: dict, prefix: str) -> None:
        path = f"{prefix}/{node['name']}" if prefix else node["name"]
        out[path] = out.get(path, 0.0) + float(node["elapsed_s"])
        for ch in node.get("children", []):
            walk(ch, path)

    for root in doc.get("phases", []):
        walk(root, "")
    return out


def _label_str(labels: tuple) -> str:
    return ",".join(f"{k}={v}" for k, v in labels) if labels else "-"


@dataclass
class ManifestDiff:
    """Structured comparison of two run manifests."""

    #: (name, labels, a value, b value) for counters/gauges that differ.
    changed_values: list[tuple[str, tuple, float, float]] = field(
        default_factory=list
    )
    #: metric keys present in exactly one manifest.
    only_a: list[tuple[str, tuple]] = field(default_factory=list)
    only_b: list[tuple[str, tuple]] = field(default_factory=list)
    #: (phase path, a seconds, b seconds) for every phase in either run.
    phases: list[tuple[str, float, float]] = field(default_factory=list)
    #: config keys whose fingerprints differ: (key, a, b).
    config_changes: list[tuple[str, Any, Any]] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (
            self.changed_values or self.only_a or self.only_b or self.config_changes
        )

    def render(self) -> str:
        from repro.util.tables import format_table

        parts: list[str] = []
        if self.is_empty():
            # Wall-clock phase timings always drift run to run; lead with
            # the signal that the *metrics* match before showing them.
            parts.append("manifests are metric-identical")
        if self.config_changes:
            parts.append(
                format_table(
                    ["config key", "a", "b"],
                    [[k, repr(a), repr(b)] for k, a, b in self.config_changes],
                    title="Manifest diff: config changes",
                )
            )
        rows = [
            [
                name,
                _label_str(labels),
                f"{va:g}",
                f"{vb:g}",
                f"{vb - va:+g}",
            ]
            for name, labels, va, vb in self.changed_values
        ]
        if rows:
            parts.append(
                format_table(
                    ["metric", "labels", "a", "b", "delta"],
                    rows,
                    title="Manifest diff: changed metrics",
                )
            )
        for title, keys in (("only in a", self.only_a), ("only in b", self.only_b)):
            if keys:
                parts.append(
                    f"  {title}: "
                    + ", ".join(
                        f"{n}{{{_label_str(l)}}}" if l else n for n, l in keys
                    )
                )
        if self.phases:
            rows = [
                [path, f"{a:.3f}", f"{b:.3f}", f"{b - a:+.3f}"]
                for path, a, b in self.phases
            ]
            parts.append(
                format_table(
                    ["phase", "a (s)", "b (s)", "delta (s)"],
                    rows,
                    title="Manifest diff: phase timings",
                )
            )
        return "\n".join(parts)


def diff_manifests(a: dict[str, Any], b: dict[str, Any]) -> ManifestDiff:
    """Compare two manifests: metric deltas, phase timings, config drift."""
    for doc, label in ((a, "a"), (b, "b")):
        problems = validate_manifest(doc)
        if problems:
            raise ValueError(f"manifest {label} is invalid: " + "; ".join(problems))
    diff = ManifestDiff()

    cfg_a = a.get("config") or {}
    cfg_b = b.get("config") or {}
    for key in sorted(set(cfg_a) | set(cfg_b)):
        if cfg_a.get(key) != cfg_b.get(key):
            diff.config_changes.append((key, cfg_a.get(key), cfg_b.get(key)))

    for kind in ("counters", "gauges"):
        ma = _metric_map(a, kind)
        mb = _metric_map(b, kind)
        for key in sorted(set(ma) | set(mb)):
            if key in ma and key in mb:
                va, vb = ma[key]["value"], mb[key]["value"]
                if va != vb:
                    diff.changed_values.append((key[0], key[1], va, vb))
            elif key in ma:
                diff.only_a.append(key)
            else:
                diff.only_b.append(key)

    pa = _flatten_phases(a)
    pb = _flatten_phases(b)
    for path in sorted(set(pa) | set(pb)):
        diff.phases.append((path, pa.get(path, 0.0), pb.get(path, 0.0)))
    return diff
