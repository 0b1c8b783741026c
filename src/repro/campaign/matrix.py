"""Matrix expansion: a campaign spec into cells and one deduplicated plan.

Expansion walks the cartesian product of the four axes in document
order (scenarios, then versions, then engines, then configs), appends
the explicit ``pairings``, drops every combination an ``exclude``
filter matches, and dedupes the survivors by
:class:`~repro.exec.keys.ExperimentKey` digest — the same identity the
result store addresses — into a :class:`~repro.exec.plan.SweepPlan`.

Cells, not tasks, are the campaign's unit of accounting: each
:class:`CampaignCell` carries its axis coordinates, its human-readable
label (``hf/inter/fast/default``) and its key digest.  Two coordinates
that resolve to the same experiment (a ``version`` crossed with a
generator scenario that has no mapper, a config override that is a
no-op) collapse to one cell, so campaign totals never double-count a
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.campaign.spec import CampaignSpec
from repro.scenario.registry import resolve_scenario
from repro.scenario.runner import effective_config, scenario_identity
from repro.scenario.spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.plan import SweepPlan
    from repro.experiments.config import SystemConfig

__all__ = ["CampaignCell", "CampaignPlan", "apply_config_overrides", "expand_campaign"]

#: Coordinate label for an axis that does not apply to a cell (the
#: version axis of a generator/trace scenario).
NO_AXIS = "-"


@dataclass(frozen=True)
class CampaignCell:
    """One unique experiment of the campaign, with its coordinates."""

    #: ``scenario/version/engine/config`` labels joined with ``/``.
    label: str
    #: Axis name -> value label, in :data:`CAMPAIGN_AXES` order.
    coords: tuple[tuple[str, str], ...]
    #: The cell's :class:`~repro.exec.keys.ExperimentKey` digest.
    key_digest: str
    #: Key identity bits, for display and manifests.
    workload: str
    version: str

    def coord(self, axis: str) -> str:
        for name, value in self.coords:
            if name == axis:
                return value
        raise KeyError(axis)

    def as_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "coords": dict(self.coords),
            "key": self.key_digest,
            "workload": self.workload,
            "version": self.version,
        }


@dataclass
class CampaignPlan:
    """The expanded campaign: unique cells plus their executable plan."""

    spec: CampaignSpec
    cells: list[CampaignCell] = field(default_factory=list)
    plan: "SweepPlan" = None  # type: ignore[assignment]
    #: Product combinations dropped by an exclude filter.
    excluded: int = 0
    #: Combinations that collapsed onto an earlier cell's key.
    duplicates: int = 0

    def __len__(self) -> int:
        return len(self.cells)


def apply_config_overrides(
    base: "SystemConfig", overrides: Mapping[str, Any]
) -> "SystemConfig":
    """Apply one ``configs``-axis entry onto the base config."""
    from dataclasses import replace

    doc = {k: v for k, v in overrides.items() if k != "name"}
    topology = doc.pop("topology", None)
    for key in ("cache_elems", "policies"):
        if key in doc and doc[key] is not None:
            doc[key] = tuple(doc[key])
    config = replace(base, **doc) if doc else base
    if topology is not None:
        config = config.with_topology(*topology)
    return config


def _matches(filter_doc: Mapping[str, Any], coords: Mapping[str, str]) -> bool:
    """True when every axis the filter names matches the cell's label."""
    for axis, wanted in filter_doc.items():
        value = coords.get(axis)
        if isinstance(wanted, str):
            if value != wanted:
                return False
        elif value not in wanted:
            return False
    return True


def _combos(spec: CampaignSpec) -> Iterable[dict[str, str]]:
    """Every coordinate combination: full product, then pairings."""
    scenario_labels = []
    for entry in spec.scenario_entries():
        scenario_labels.append(
            entry if isinstance(entry, str) else entry.get("name", "")
        )
    config_names = [c["name"] for c in spec.config_entries()]
    for s in scenario_labels:
        for v in spec.versions:
            for e in spec.engines:
                for c in config_names:
                    yield {"scenario": s, "version": v, "engine": e, "config": c}
    defaults = {
        "scenario": scenario_labels[0],
        "version": spec.versions[0],
        "engine": spec.engines[0],
        "config": config_names[0],
    }
    for pairing in spec.pairing_entries():
        yield {**defaults, **pairing}


def expand_campaign(
    spec: CampaignSpec, base_config: "SystemConfig | None" = None
) -> CampaignPlan:
    """Expand a spec into unique cells and one deduplicated sweep plan.

    ``base_config`` overrides the spec's own ``scale`` (the CLI's
    ``--scale`` wins over the document); per-cell config overrides then
    apply on top either way.  Scenario specs are deep-validated once
    here, so an absent trace file or unknown workload fails before any
    simulation starts.
    """
    from repro.exec.plan import SweepPlan
    from repro.experiments.config import DEFAULT_CONFIG, scaled_config

    if base_config is None:
        base_config = scaled_config(spec.scale) if spec.scale else DEFAULT_CONFIG

    # Resolve each axis entry once, not per combination.
    scenarios: dict[str, ScenarioSpec] = {}
    for entry in spec.scenario_entries():
        sspec = resolve_scenario(entry)
        sspec.deep_validate()
        label = entry if isinstance(entry, str) else sspec.name
        scenarios[label] = sspec
    configs = {
        doc["name"]: apply_config_overrides(base_config, doc)
        for doc in spec.config_entries()
    }
    excludes = spec.exclude_entries()

    plan = SweepPlan()
    out = CampaignPlan(spec=spec, plan=plan)
    seen: dict[str, CampaignCell] = {}
    for combo in _combos(spec):
        if any(_matches(f, combo) for f in excludes):
            out.excluded += 1
            continue
        sspec = scenarios[combo["scenario"]]
        if sspec.kind == "workload":
            version: str | None = combo["version"]
        else:
            # No mapper axis: collapse the coordinate so crossing a
            # generator scenario with N versions yields one cell.
            version = None
            combo = {**combo, "version": NO_AXIS}
        workload, v, scenario_fp = scenario_identity(sspec, version)
        key = plan.add(
            workload,
            effective_config(sspec, configs[combo["config"]]),
            v,
            engine={"engine": combo["engine"]},
            scenario=scenario_fp,
        )
        if key.digest in seen:
            out.duplicates += 1
            continue
        coords = tuple((axis, combo[axis]) for axis in ("scenario", "version", "engine", "config"))
        cell = CampaignCell(
            label="/".join(value for _, value in coords),
            coords=coords,
            key_digest=key.digest,
            workload=workload,
            version=v,
        )
        seen[key.digest] = cell
        out.cells.append(cell)
    return out
