"""Campaign comparison reports: baseline-vs-variant deltas per axis.

A report is a pure function of a campaign manifest — re-running
``repro campaign report`` over the same manifest reproduces the same
document byte for byte, and its :func:`report_digest` is pinnable in
CI.  The spec's ``baseline`` picks one axis value (say
``version=original``); cells are grouped by their remaining
coordinates, and inside each group every other value of that axis is
compared against the baseline cell: absolute deltas and ratios of I/O
latency, execution time and per-level miss rates.

Generator/trace scenarios have no mapper version; when the baseline
axis is ``version`` their groups carry no baseline cell and report
raw metrics without deltas rather than inventing a comparison.

:func:`render_report` emits the markdown form; :func:`diff_reports`
compares two manifests cell-by-cell (digest drift is listed before
metric movement, mirroring the perf gate's priorities).
"""

from __future__ import annotations

import hashlib
from typing import Any, Mapping

from repro.util.fingerprint import canonical_json

__all__ = [
    "CAMPAIGN_REPORT_VERSION",
    "REPORT_RECORD",
    "build_report",
    "report_digest",
    "render_report",
    "diff_manifests",
]

CAMPAIGN_REPORT_VERSION = 1
REPORT_RECORD = "repro-campaign-report"

#: Scalar metrics compared baseline-vs-variant.
_SCALARS = ("io_latency_ms", "execution_time_ms")


def _metrics_of(cell: Mapping[str, Any]) -> dict[str, Any] | None:
    summary = cell.get("summary")
    if not summary:
        return None
    return {
        "io_latency_ms": summary["io_latency_ms"],
        "execution_time_ms": summary["execution_time_ms"],
        "miss_rates": dict(summary.get("miss_rates", {})),
    }


def _delta(base: Mapping[str, Any], variant: Mapping[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for metric in _SCALARS:
        out[metric] = variant[metric] - base[metric]
    out["miss_rates"] = {
        level: variant["miss_rates"][level] - rate
        for level, rate in base["miss_rates"].items()
        if level in variant["miss_rates"]
    }
    return out


def _ratio(base: Mapping[str, Any], variant: Mapping[str, Any]) -> dict[str, Any]:
    return {
        metric: (variant[metric] / base[metric]) if base[metric] else None
        for metric in _SCALARS
    }


def build_report(manifest: Mapping[str, Any]) -> dict[str, Any]:
    """Assemble the comparison report from a (complete) manifest."""
    spec = manifest.get("spec", {})
    baseline_doc = spec.get("baseline", {})
    axis = baseline_doc.get("axis", "version")
    baseline_value = baseline_doc.get("value", "")

    cells = manifest.get("cells", {})
    statuses: dict[str, int] = {}
    for cell in cells.values():
        status = cell.get("status", "pending")
        statuses[status] = statuses.get(status, 0) + 1

    # Group by every coordinate except the baseline axis.
    groups: dict[str, dict[str, Any]] = {}
    for label, cell in sorted(cells.items()):
        coords = cell.get("coords", {})
        group_coords = {a: v for a, v in coords.items() if a != axis}
        group_key = canonical_json(group_coords)
        group = groups.setdefault(
            group_key, {"coords": group_coords, "baseline": None, "variants": []}
        )
        entry = {
            "value": coords.get(axis),
            "cell": label,
            "status": cell.get("status"),
            "digest": cell.get("digest"),
            "metrics": _metrics_of(cell),
        }
        if coords.get(axis) == baseline_value:
            group["baseline"] = entry
        else:
            group["variants"].append(entry)

    for group in groups.values():
        base = group["baseline"]
        base_metrics = base and base["metrics"]
        for variant in group["variants"]:
            if base_metrics and variant["metrics"]:
                variant["delta"] = _delta(base_metrics, variant["metrics"])
                variant["ratio"] = _ratio(base_metrics, variant["metrics"])
            else:
                variant["delta"] = None
                variant["ratio"] = None

    doc = {
        "record": REPORT_RECORD,
        "schema_version": CAMPAIGN_REPORT_VERSION,
        "name": manifest.get("name", ""),
        "fingerprint": manifest.get("fingerprint", ""),
        "baseline": {"axis": axis, "value": baseline_value},
        "cells": len(cells),
        "statuses": dict(sorted(statuses.items())),
        "groups": [groups[k] for k in sorted(groups)],
        "collectors": manifest.get("collectors", {}),
    }
    doc["digest"] = report_digest(doc)
    return doc


def report_digest(report: Mapping[str, Any]) -> str:
    """Hex SHA-256 of the report's deterministic core.

    Statuses (cache temperature) and the embedded digest itself are
    excluded; per-variant statuses inside groups are stripped the same
    way, so a warm re-run or a resumed run pins the same value.
    """

    def _strip(entry: Mapping[str, Any] | None) -> dict[str, Any] | None:
        if entry is None:
            return None
        return {k: v for k, v in entry.items() if k != "status"}

    core = {
        "fingerprint": report.get("fingerprint"),
        "baseline": report.get("baseline"),
        "groups": [
            {
                "coords": g["coords"],
                "baseline": _strip(g.get("baseline")),
                "variants": [_strip(v) for v in g.get("variants", [])],
            }
            for g in report.get("groups", [])
        ],
        "collectors": report.get("collectors"),
    }
    return hashlib.sha256(canonical_json(core).encode("utf-8")).hexdigest()


# -- rendering ----------------------------------------------------------------------


def _fmt(value: Any, places: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{places}f}"
    return str(value)


def render_report(report: Mapping[str, Any]) -> str:
    """The markdown form of a report document."""
    baseline = report.get("baseline", {})
    lines = [
        f"# Campaign report: {report.get('name', '?')}",
        "",
        f"- fingerprint: `{report.get('fingerprint', '')[:12]}`",
        f"- cells: {report.get('cells', 0)}"
        + "".join(
            f", {status}: {n}"
            for status, n in report.get("statuses", {}).items()
        ),
        f"- baseline: `{baseline.get('axis')}={baseline.get('value')}`",
        f"- report digest: `{report.get('digest', '')}`",
        "",
        "## Baseline vs variants",
        "",
        "| group | variant | io (ms) | io Δ | io x | exec (ms) | exec x |"
        " L1 miss Δ | L2 miss Δ | L3 miss Δ |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for group in report.get("groups", []):
        coords = group["coords"]
        group_label = "/".join(coords[a] for a in sorted(coords)) or "-"
        base = group.get("baseline")
        if base and base.get("metrics"):
            m = base["metrics"]
            lines.append(
                f"| {group_label} | {base['value']} (baseline) "
                f"| {_fmt(m['io_latency_ms'], 1)} | - | 1.000 "
                f"| {_fmt(m['execution_time_ms'], 1)} | 1.000 | - | - | - |"
            )
        for variant in group.get("variants", []):
            m = variant.get("metrics")
            if not m:
                lines.append(
                    f"| {group_label} | {variant['value']} | - | - | - | - | - |"
                    " - | - | - |"
                )
                continue
            delta = variant.get("delta") or {}
            ratio = variant.get("ratio") or {}
            miss = delta.get("miss_rates", {})
            lines.append(
                f"| {group_label} | {variant['value']} "
                f"| {_fmt(m['io_latency_ms'], 1)} "
                f"| {_fmt(delta.get('io_latency_ms'), 1)} "
                f"| {_fmt(ratio.get('io_latency_ms'))} "
                f"| {_fmt(m['execution_time_ms'], 1)} "
                f"| {_fmt(ratio.get('execution_time_ms'))} "
                f"| {_fmt(miss.get('L1'))} | {_fmt(miss.get('L2'))} "
                f"| {_fmt(miss.get('L3'))} |"
            )
    collectors = report.get("collectors", {})
    if collectors:
        lines += ["", "## Collector aggregates", ""]
        for name, summary in sorted(collectors.items()):
            lines.append(f"### {name}")
            lines.append("```json")
            import json

            lines.append(json.dumps(summary, indent=2, sort_keys=True))
            lines.append("```")
    lines.append("")
    return "\n".join(lines)


# -- diffing ------------------------------------------------------------------------


#: Largest metric-summary shift ``diff_manifests`` treats as unmoved.
MOVE_EPSILON = 1e-9


def diff_manifests(a: Mapping[str, Any], b: Mapping[str, Any]) -> dict[str, Any]:
    """Compare two campaign manifests cell by cell.

    Returns ``{identical, fingerprint_match, only_in_a, only_in_b,
    drifted, moved}`` where ``drifted`` lists cells whose result digest
    changed (a determinism/identity break) and ``moved`` lists cells
    whose metric summaries shifted beyond :data:`MOVE_EPSILON` while keeping
    their digest (impossible unless summaries were computed differently
    — surfaced rather than hidden).
    """
    cells_a = a.get("cells", {})
    cells_b = b.get("cells", {})
    only_a = sorted(set(cells_a) - set(cells_b))
    only_b = sorted(set(cells_b) - set(cells_a))
    drifted: list[dict[str, Any]] = []
    moved: list[dict[str, Any]] = []
    for label in sorted(set(cells_a) & set(cells_b)):
        ca, cb = cells_a[label], cells_b[label]
        if ca.get("digest") != cb.get("digest"):
            drifted.append(
                {"cell": label, "a": ca.get("digest"), "b": cb.get("digest")}
            )
            continue
        sa, sb = ca.get("summary") or {}, cb.get("summary") or {}
        for metric in _SCALARS:
            va, vb = sa.get(metric), sb.get(metric)
            if va is not None and vb is not None and abs(va - vb) > MOVE_EPSILON:
                moved.append({"cell": label, "metric": metric, "a": va, "b": vb})
    return {
        "fingerprint_match": a.get("fingerprint") == b.get("fingerprint"),
        "cells_a": len(cells_a),
        "cells_b": len(cells_b),
        "only_in_a": only_a,
        "only_in_b": only_b,
        "drifted": drifted,
        "moved": moved,
        "identical": not (only_a or only_b or drifted or moved),
    }


def render_diff(diff: Mapping[str, Any]) -> str:
    lines = [
        f"fingerprints {'match' if diff['fingerprint_match'] else 'DIFFER'}; "
        f"{diff['cells_a']} vs {diff['cells_b']} cells"
    ]
    for label in diff["only_in_a"]:
        lines.append(f"  only in A: {label}")
    for label in diff["only_in_b"]:
        lines.append(f"  only in B: {label}")
    for d in diff["drifted"]:
        lines.append(
            f"  DIGEST DRIFT {d['cell']}: {str(d['a'])[:12]} -> {str(d['b'])[:12]}"
        )
    for m in diff["moved"]:
        lines.append(
            f"  moved {m['cell']} {m['metric']}: {m['a']:.6g} -> {m['b']:.6g}"
        )
    if diff["identical"]:
        lines.append("  identical: every common cell agrees")
    return "\n".join(lines)
