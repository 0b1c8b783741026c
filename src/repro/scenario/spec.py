"""Declarative scenario specifications.

A :class:`ScenarioSpec` names one runnable workload in a form a JSON or
YAML document can carry: a ``kind`` selecting the stream source plus
kind-specific ``params``.  Four kinds exist:

``workload``
    One of the paper's eight suite applications, run through the full
    mapping pipeline (``params``: ``workload``, optional mapper
    ``version``).  These delegate to the legacy execution path and
    share its cache keys, so registry runs and direct runs are the
    same experiment.
``zipf``
    Stationary Zipf-popularity request streams over a chunked data
    space (``params``: ``alpha``, ``requests_per_client``, optional
    ``num_chunks``) — the icarus-style stationary workload.
``onoff``
    Bursty on/off streams: bursts over a small hot window interleaved
    with uniform background draws (``params``: ``burst_len``,
    ``gap_len``, ``hot_chunks``, ``requests_per_client``, optional
    ``num_chunks``).
``trace``
    Replay of an ingested CSV/JSONL access log (``params``: ``path``,
    optional ``format``/``sha256``), parsed by
    :mod:`repro.scenario.traces`.

Scenarios may also carry a ``policies`` triple (leaf-first L1, L2, L3
replacement policy names) applied onto the experiment config, and all
stochastic kinds seed through :mod:`repro.util.rng` from
``config.seed`` for bit-reproducibility.

:func:`spec_fingerprint` is the JSON-safe identity folded into
:class:`~repro.exec.keys.ExperimentKey` engine options — two scenarios
differing in any param hash to different keys.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "SCENARIO_SPEC_VERSION",
    "SCENARIO_KINDS",
    "ScenarioSpec",
    "spec_to_dict",
    "spec_from_dict",
    "spec_fingerprint",
    "load_spec_file",
]

#: Bump when the spec document layout changes; fingerprints embed it.
SCENARIO_SPEC_VERSION = 1

SCENARIO_KINDS = ("workload", "zipf", "onoff", "trace")

#: Per-kind parameter schema: name -> (default, validator description).
_TRACE_FORMATS = ("csv", "jsonl")


def _positive_int(params: Mapping[str, Any], key: str, default: int | None) -> None:
    v = params.get(key, default)
    if v is None:
        return
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise ValueError(f"param {key!r} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: a named, validated (kind, params) pair."""

    name: str
    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    description: str = ""
    #: Optional per-level replacement policies, leaf first (L1, L2, L3).
    policies: tuple[str, str, str] | None = None

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValueError("scenario name must be a non-empty string")
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {self.kind!r}; choose from {SCENARIO_KINDS}"
            )
        if self.policies is not None and len(self.policies) != 3:
            raise ValueError("policies must name one policy per level (L1, L2, L3)")
        self._validate_params()

    def _validate_params(self) -> None:
        p = self.params
        if self.kind == "workload":
            w = p.get("workload")
            if not isinstance(w, str) or not w:
                raise ValueError("workload scenarios need a 'workload' param")
            extra = set(p) - {"workload", "version"}
        elif self.kind == "zipf":
            alpha = p.get("alpha", 0.8)
            if not isinstance(alpha, (int, float)) or alpha <= 0:
                raise ValueError(f"param 'alpha' must be > 0, got {alpha!r}")
            _positive_int(p, "requests_per_client", 4096)
            _positive_int(p, "num_chunks", None)
            extra = set(p) - {"alpha", "requests_per_client", "num_chunks"}
        elif self.kind == "onoff":
            for key, default in (
                ("requests_per_client", 4096),
                ("burst_len", 64),
                ("gap_len", 16),
                ("hot_chunks", None),
                ("num_chunks", None),
            ):
                _positive_int(p, key, default)
            extra = set(p) - {
                "requests_per_client",
                "burst_len",
                "gap_len",
                "hot_chunks",
                "num_chunks",
            }
        else:  # trace
            path = p.get("path")
            if not isinstance(path, str) or not path:
                raise ValueError("trace scenarios need a 'path' param")
            fmt = p.get("format")
            if fmt is not None and fmt not in _TRACE_FORMATS:
                raise ValueError(
                    f"param 'format' must be one of {_TRACE_FORMATS}, got {fmt!r}"
                )
            extra = set(p) - {"path", "format", "sha256", "content_sha256"}
        if extra:
            raise ValueError(
                f"unknown params for kind {self.kind!r}: {sorted(extra)}"
            )

    def deep_validate(self) -> None:
        """Checks beyond the schema: workload names, policy names, files.

        Separate from construction so specs for absent trace files can
        still be listed and fingerprinted; ``repro scenario validate``
        and the runner call this before executing.
        """
        if self.kind == "workload":
            from repro.simulator.runner import VERSIONS
            from repro.workloads.suite import get_workload

            try:
                get_workload(self.params["workload"])
            except KeyError as exc:
                raise ValueError(str(exc).strip('"')) from None
            version = self.params.get("version", "inter+sched")
            if version not in VERSIONS:
                raise ValueError(
                    f"unknown mapper version {version!r}; choose from {VERSIONS}"
                )
        elif self.kind == "trace":
            if not pathlib.Path(self.params["path"]).is_file():
                raise ValueError(f"trace file not found: {self.params['path']}")
        if self.policies is not None:
            from repro.hierarchy.policies import check_policy_name

            for p in self.policies:
                check_policy_name(p)


def spec_to_dict(spec: ScenarioSpec) -> dict[str, Any]:
    """The JSON/YAML-safe document form of a spec."""
    doc: dict[str, Any] = {
        "record": "repro-scenario-spec",
        "spec_version": SCENARIO_SPEC_VERSION,
        "name": spec.name,
        "kind": spec.kind,
        "params": dict(spec.params),
    }
    if spec.description:
        doc["description"] = spec.description
    if spec.policies is not None:
        doc["policies"] = list(spec.policies)
    return doc


def spec_from_dict(doc: Mapping[str, Any]) -> ScenarioSpec:
    """Parse and validate a spec document (inverse of :func:`spec_to_dict`)."""
    if not isinstance(doc, Mapping):
        raise ValueError("scenario spec must be an object")
    version = doc.get("spec_version", SCENARIO_SPEC_VERSION)
    if not isinstance(version, int) or version > SCENARIO_SPEC_VERSION:
        raise ValueError(
            f"spec_version {version!r} is newer than supported "
            f"v{SCENARIO_SPEC_VERSION}"
        )
    record = doc.get("record", "repro-scenario-spec")
    if record != "repro-scenario-spec":
        raise ValueError(f"record must be 'repro-scenario-spec', got {record!r}")
    params = doc.get("params") or {}
    if not isinstance(params, Mapping):
        raise ValueError("'params' must be an object")
    policies = doc.get("policies")
    return ScenarioSpec(
        name=doc.get("name", ""),
        kind=doc.get("kind", ""),
        params=dict(params),
        description=doc.get("description", ""),
        policies=tuple(policies) if policies else None,
    )


def spec_fingerprint(spec: ScenarioSpec) -> dict[str, Any]:
    """The identity document folded into experiment keys.

    Name, kind, params and the policy triple all participate; the
    free-text description deliberately does not.  Trace scenarios get
    the file's ``content_sha256`` added by the runner at resolve time
    so a changed trace file can never alias a cached result.
    """
    return {
        "spec_version": SCENARIO_SPEC_VERSION,
        "name": spec.name,
        "kind": spec.kind,
        "params": dict(spec.params),
        "policies": list(spec.policies) if spec.policies else None,
    }


def load_spec_file(path: str | pathlib.Path) -> ScenarioSpec:
    """Load one spec from a ``.json``, ``.yaml`` or ``.yml`` file."""
    p = pathlib.Path(path)
    text = p.read_text(encoding="utf-8")
    if p.suffix.lower() in (".yaml", ".yml"):
        import yaml

        doc = yaml.safe_load(text)
    elif p.suffix.lower() == ".json":
        doc = json.loads(text)
    else:
        raise ValueError(
            f"cannot tell the spec format of {p.name!r}; use .json/.yaml/.yml"
        )
    try:
        return spec_from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from None
