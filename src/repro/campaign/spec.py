"""Declarative campaign specifications.

A :class:`CampaignSpec` names one *study*: a matrix of axes the
campaign sweeps —

``scenarios``
    Registered scenario names or inline
    :class:`~repro.scenario.spec.ScenarioSpec` documents (the paper's
    eight workloads are registered names, so ``"hf"`` works directly).
``versions``
    Mapper versions (``original``/``intra``/``inter``/``inter+sched``).
    The axis applies to ``workload``-kind scenarios only; generator and
    trace scenarios have no mapper, so their cells collapse onto a
    single ``-`` coordinate instead of multiplying.
``engines``
    Simulation engines (``reference``/``fast``), pinned explicitly into
    every cell's :class:`~repro.exec.keys.ExperimentKey`.
``configs``
    Named config-override documents applied onto the base
    :class:`~repro.experiments.config.SystemConfig` (capacities,
    policies, prefetch, chunk size, topology, seed …).

The cartesian product of the axes, plus explicit ``pairings`` and
minus ``exclude`` filters, expands into the campaign's cells
(:mod:`repro.campaign.matrix`).  ``baseline`` selects one axis value
as the comparison anchor for the report; ``collectors`` names the
aggregators cell results stream through.

:func:`campaign_fingerprint` hashes the normalised document (defaults
applied, free-text description excluded), so two specs that mean the
same study share one fingerprint and a resumed campaign can verify it
is resuming *this* study.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Mapping

from repro.util.fingerprint import canonical_json

__all__ = [
    "CAMPAIGN_SPEC_VERSION",
    "CAMPAIGN_AXES",
    "CampaignSpec",
    "campaign_to_dict",
    "campaign_from_dict",
    "campaign_fingerprint",
    "load_campaign_file",
]

#: Bump when the campaign document layout changes; fingerprints embed it.
CAMPAIGN_SPEC_VERSION = 1

#: Cell coordinate names, in label order.
CAMPAIGN_AXES = ("scenario", "version", "engine", "config")

_RECORD = "repro-campaign"

#: Config-override keys ``configs`` entries may set (beyond ``name``).
CONFIG_OVERRIDE_KEYS = (
    "cache_elems",
    "chunk_elems",
    "prefetch_degree",
    "policies",
    "policy",
    "writeback",
    "seed",
    "balance_threshold",
    "alpha",
    "beta",
    "data_elems",
    "topology",
)

_TOP_LEVEL_KEYS = {
    "record",
    "spec_version",
    "name",
    "description",
    "scale",
    "axes",
    "pairings",
    "exclude",
    "baseline",
    "collectors",
}

_AXIS_KEYS = {"scenarios", "versions", "engines", "configs"}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _str_tuple(values: Any, what: str) -> tuple[str, ...]:
    _require(
        isinstance(values, (list, tuple)) and values,
        f"{what} must be a non-empty list",
    )
    for v in values:
        _require(isinstance(v, str) and v, f"{what} entries must be non-empty strings")
    return tuple(values)


@dataclass(frozen=True)
class CampaignSpec:
    """One validated campaign: axes, pairings, exclusions, baseline.

    Construct through :func:`campaign_from_dict` /
    :func:`load_campaign_file`; the constructor validates shape but the
    document form is the canonical interface.
    """

    name: str
    #: Axis values.  ``scenarios`` entries are names (str) or inline
    #: scenario-spec documents (canonical-JSON strings, kept hashable).
    scenarios: tuple[str, ...] = ()
    versions: tuple[str, ...] = ("inter+sched",)
    engines: tuple[str, ...] = ("fast",)
    #: Config overrides as canonical-JSON strings (each with a "name").
    configs: tuple[str, ...] = ('{"name":"default"}',)
    #: Explicit extra cells: canonical-JSON of partial coordinate docs.
    pairings: tuple[str, ...] = ()
    #: Exclusion filters: canonical-JSON of partial coordinate docs.
    exclude: tuple[str, ...] = ()
    #: (axis, value) the comparison report anchors on.
    baseline: tuple[str, str] = ("version", "")
    collectors: tuple[str, ...] = ()
    scale: int = 0
    description: str = ""

    # -- decoded views -------------------------------------------------------------

    def scenario_entries(self) -> list[str | dict[str, Any]]:
        """Each scenarios-axis entry: a registry name or an inline doc."""
        return [_maybe_json(s) for s in self.scenarios]

    def config_entries(self) -> list[dict[str, Any]]:
        return [json.loads(c) for c in self.configs]

    def pairing_entries(self) -> list[dict[str, Any]]:
        return [json.loads(p) for p in self.pairings]

    def exclude_entries(self) -> list[dict[str, Any]]:
        return [json.loads(e) for e in self.exclude]

    def __post_init__(self):
        _require(
            bool(self.name) and isinstance(self.name, str),
            "campaign name must be a non-empty string",
        )
        _require(bool(self.scenarios), "axes.scenarios must be non-empty")
        _require(self.scale >= 0, "scale must be non-negative")


def _maybe_json(entry: str) -> str | dict[str, Any]:
    return json.loads(entry) if entry.startswith("{") else entry


def _validate_config_entry(doc: Mapping[str, Any], index: int) -> None:
    _require(
        isinstance(doc, Mapping),
        f"configs[{index}] must be an object with a 'name'",
    )
    name = doc.get("name")
    _require(
        isinstance(name, str) and bool(name),
        f"configs[{index}] needs a non-empty 'name'",
    )
    extra = set(doc) - {"name"} - set(CONFIG_OVERRIDE_KEYS)
    _require(
        not extra,
        f"configs[{index}] ({name!r}): unknown override keys {sorted(extra)}; "
        f"choose from {CONFIG_OVERRIDE_KEYS}",
    )
    for key, length in (("cache_elems", 3), ("policies", 3), ("topology", 3)):
        if key in doc:
            value = doc[key]
            _require(
                isinstance(value, (list, tuple)) and len(value) == length,
                f"configs[{index}] ({name!r}): {key} must be a {length}-tuple",
            )


def _validate_partial_coords(
    doc: Mapping[str, Any], what: str, allow_lists: bool
) -> None:
    _require(isinstance(doc, Mapping) and doc, f"{what} entries must be non-empty objects")
    extra = set(doc) - set(CAMPAIGN_AXES)
    _require(
        not extra,
        f"{what} entry has unknown axes {sorted(extra)}; choose from {CAMPAIGN_AXES}",
    )
    for axis, value in doc.items():
        ok = isinstance(value, str) or (
            allow_lists
            and isinstance(value, (list, tuple))
            and all(isinstance(v, str) for v in value)
        )
        _require(
            ok,
            f"{what} entry {axis!r} must be a label"
            + (" or list of labels" if allow_lists else ""),
        )


def campaign_from_dict(doc: Mapping[str, Any]) -> CampaignSpec:
    """Parse and validate a campaign document into a :class:`CampaignSpec`."""
    _require(isinstance(doc, Mapping), "campaign spec must be an object")
    record = doc.get("record", _RECORD)
    _require(record == _RECORD, f"record must be {_RECORD!r}, got {record!r}")
    version = doc.get("spec_version", CAMPAIGN_SPEC_VERSION)
    _require(
        isinstance(version, int) and version <= CAMPAIGN_SPEC_VERSION,
        f"spec_version {version!r} is newer than supported v{CAMPAIGN_SPEC_VERSION}",
    )
    extra = set(doc) - _TOP_LEVEL_KEYS
    _require(not extra, f"unknown campaign keys {sorted(extra)}")

    axes = doc.get("axes")
    _require(isinstance(axes, Mapping), "campaign needs an 'axes' object")
    unknown_axes = set(axes) - _AXIS_KEYS
    _require(not unknown_axes, f"unknown axes {sorted(unknown_axes)}")

    # scenarios: names or inline spec documents (validated via the
    # scenario layer so a bad inline spec fails here, not mid-run).
    raw_scenarios = axes.get("scenarios")
    _require(
        isinstance(raw_scenarios, (list, tuple)) and raw_scenarios,
        "axes.scenarios must be a non-empty list",
    )
    from repro.scenario.spec import spec_from_dict

    scenarios: list[str] = []
    labels: list[str] = []
    for i, entry in enumerate(raw_scenarios):
        if isinstance(entry, str) and entry:
            scenarios.append(entry)
            labels.append(entry)
        elif isinstance(entry, Mapping):
            spec = spec_from_dict(entry)  # raises ValueError on a bad doc
            scenarios.append(canonical_json(dict(entry)))
            labels.append(spec.name)
        else:
            raise ValueError(
                f"axes.scenarios[{i}] must be a name or an inline spec document"
            )
    dupes = {l for l in labels if labels.count(l) > 1}
    _require(not dupes, f"duplicate scenario labels {sorted(dupes)}")

    versions = _str_tuple(axes.get("versions", ["inter+sched"]), "axes.versions")
    from repro.simulator.runner import VERSIONS

    for v in versions:
        _require(v in VERSIONS, f"unknown mapper version {v!r}; choose from {VERSIONS}")

    engines = _str_tuple(axes.get("engines", ["fast"]), "axes.engines")
    from repro.simulator.engines import ENGINE_NAMES

    for e in engines:
        _require(e in ENGINE_NAMES, f"unknown engine {e!r}; choose from {ENGINE_NAMES}")

    raw_configs = axes.get("configs", [{"name": "default"}])
    _require(
        isinstance(raw_configs, (list, tuple)) and raw_configs,
        "axes.configs must be a non-empty list",
    )
    config_names: list[str] = []
    configs: list[str] = []
    for i, entry in enumerate(raw_configs):
        _validate_config_entry(entry, i)
        config_names.append(entry["name"])
        configs.append(canonical_json(dict(entry)))
    dupes = {n for n in config_names if config_names.count(n) > 1}
    _require(not dupes, f"duplicate config names {sorted(dupes)}")

    axis_labels = {
        "scenario": labels,
        "version": list(versions),
        "engine": list(engines),
        "config": config_names,
    }

    # Pairings may reach outside the product on the version/engine axes
    # (that is their point: one-off cells without a full cross), but a
    # scenario or config must be declared on its axis so the expansion
    # can resolve it.
    pairing_domains = {
        "scenario": labels,
        "version": list(VERSIONS),
        "engine": list(ENGINE_NAMES),
        "config": config_names,
    }
    pairings = []
    for entry in doc.get("pairings", []) or []:
        _validate_partial_coords(entry, "pairings", allow_lists=False)
        for axis, value in entry.items():
            _require(
                value in pairing_domains[axis],
                f"pairing {axis}={value!r} names no known {axis} value",
            )
        pairings.append(canonical_json(dict(entry)))

    exclude = []
    for entry in doc.get("exclude", []) or []:
        _validate_partial_coords(entry, "exclude", allow_lists=True)
        exclude.append(canonical_json(dict(entry)))

    baseline_doc = doc.get("baseline") or {}
    _require(isinstance(baseline_doc, Mapping), "'baseline' must be an object")
    _require(
        not (set(baseline_doc) - {"axis", "value"}),
        "'baseline' takes only 'axis' and 'value'",
    )
    axis = baseline_doc.get("axis", "version")
    _require(axis in CAMPAIGN_AXES, f"baseline axis must be one of {CAMPAIGN_AXES}")
    value = baseline_doc.get("value", axis_labels[axis][0])
    _require(
        value in axis_labels[axis],
        f"baseline {axis}={value!r} names no {axis} axis value",
    )

    from repro.campaign.collectors import collector_names

    collectors = doc.get("collectors")
    if collectors is None:
        collectors = [n for n in collector_names() if n != "raw"]
    collectors = _str_tuple(collectors, "collectors")
    for c in collectors:
        _require(
            c in collector_names(),
            f"unknown collector {c!r}; choose from {collector_names()}",
        )

    scale = doc.get("scale", 0)
    _require(
        isinstance(scale, int) and not isinstance(scale, bool) and scale >= 0,
        "scale must be a non-negative integer",
    )

    return CampaignSpec(
        name=doc.get("name", ""),
        scenarios=tuple(scenarios),
        versions=versions,
        engines=engines,
        configs=tuple(configs),
        pairings=tuple(pairings),
        exclude=tuple(exclude),
        baseline=(axis, value),
        collectors=collectors,
        scale=scale,
        description=doc.get("description", ""),
    )


def campaign_to_dict(spec: CampaignSpec) -> dict[str, Any]:
    """The normalised JSON/YAML-safe document form (defaults applied)."""
    doc: dict[str, Any] = {
        "record": _RECORD,
        "spec_version": CAMPAIGN_SPEC_VERSION,
        "name": spec.name,
        "scale": spec.scale,
        "axes": {
            "scenarios": spec.scenario_entries(),
            "versions": list(spec.versions),
            "engines": list(spec.engines),
            "configs": spec.config_entries(),
        },
        "pairings": spec.pairing_entries(),
        "exclude": spec.exclude_entries(),
        "baseline": {"axis": spec.baseline[0], "value": spec.baseline[1]},
        "collectors": list(spec.collectors),
    }
    if spec.description:
        doc["description"] = spec.description
    return doc


def campaign_fingerprint(spec: CampaignSpec) -> str:
    """Hex SHA-256 identity of the normalised spec (description excluded).

    Two documents that normalise identically — e.g. one relying on
    defaults, one spelling them out — share a fingerprint, and a
    resumed campaign checks the manifest it is appending to carries the
    same one.
    """
    doc = campaign_to_dict(spec)
    doc.pop("description", None)
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def load_campaign_file(path: str | pathlib.Path) -> CampaignSpec:
    """Load one campaign from a ``.json``, ``.yaml`` or ``.yml`` file."""
    from repro.scenario.spec import load_document_file

    return load_document_file(path, "campaign", campaign_from_dict)
