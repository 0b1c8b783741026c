"""Canonical experiment identities for caching and deduplication.

An :class:`ExperimentKey` names one simulation task — a (workload,
config, version) triple plus any engine options — stably across
processes and sessions.  Keys hash the canonical identity document of
:func:`repro.util.fingerprint.experiment_identity`, the one assembly
shared with trace artifacts, run manifests and the serve protocol, so
the artifact families agree on what "the same experiment" means; the
seed participates through the config fingerprint, so changing
``config.seed`` changes the key.  Scenario specs fold into the engine
options under the reserved ``"scenario"`` key, giving scenarios that
differ only in spec or per-level policy distinct digests.

The digest is a SHA-256 over a canonical JSON encoding (sorted keys,
no whitespace) prefixed with a key-schema tag, so any change to the
key derivation itself invalidates every existing digest rather than
silently aliasing old entries.

A :class:`MappingKey` names the coarser identity of a task's *mapping*:
the workload, the version and exactly the config fields the mappers
read.  Tasks that share one map once; ``tests/exec/test_keys.py`` walks
every :class:`~repro.experiments.config.SystemConfig` field and proves
each one outside the key leaves the mapping golden unchanged.

:func:`group_key` is the coarser key misses travel and prepare under
(:func:`repro.exec.plan.run_misses` groups by it).  It is a task's
mapping key, except that ``inter+sched`` groups under the ``inter`` key
of the same workload and config: Fig. 15 scheduling is one ordering
pass on top of ``inter``'s Fig. 5 distribution, which reads exactly
:data:`MAPPING_FIELDS` plus ``balance_threshold``, so a group computes
that distribution once for both versions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Mapping

from repro.util.fingerprint import canonical_json as _canonical_json
from repro.util.fingerprint import experiment_identity

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import SystemConfig

__all__ = [
    "KEY_SCHEMA_VERSION",
    "ExperimentKey",
    "experiment_key",
    "MAPPING_FIELDS",
    "MappingKey",
    "mapping_fields",
    "mapping_key",
    "group_key",
]

#: Bump when the key derivation changes; digests embed this version.
#: v2: config fingerprints grew the per-level ``policies`` field and
#: engine options are canonicalised by :mod:`repro.util.fingerprint`.
#: v3: engine options always name the simulation engine
#: (``reference``/``fast``), stamped from the process default when the
#: caller does not pin one.
KEY_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class ExperimentKey:
    """The stable identity of one (workload, config, version) task.

    ``config_json`` and ``engine_json`` hold canonical JSON strings so
    the key is hashable and order-insensitive; build keys through
    :func:`experiment_key` rather than by hand.
    """

    workload: str
    version: str
    config_json: str
    engine_json: str = "{}"
    schema_version: int = field(default=KEY_SCHEMA_VERSION)

    @cached_property
    def digest(self) -> str:
        """Hex SHA-256 content address of this key (computed once per key)."""
        material = _canonical_json(
            {
                "record": "repro-experiment-key",
                "schema_version": self.schema_version,
                "workload": self.workload,
                "version": self.version,
                "config": self.config_json,
                "engine": self.engine_json,
            }
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    @property
    def config(self) -> dict:
        """The config fingerprint as a dict (decoded on demand)."""
        return json.loads(self.config_json)

    @property
    def engine(self) -> dict:
        return json.loads(self.engine_json)

    @property
    def seed(self) -> int | None:
        return self.config.get("seed")

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe form embedded in store entries and manifests."""
        return {
            "schema_version": self.schema_version,
            "workload": self.workload,
            "version": self.version,
            "config": self.config,
            "engine": self.engine,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ExperimentKey":
        return cls(
            workload=d["workload"],
            version=d["version"],
            config_json=_canonical_json(d["config"]),
            engine_json=_canonical_json(d.get("engine", {})),
            schema_version=int(d.get("schema_version", KEY_SCHEMA_VERSION)),
        )

    def __repr__(self) -> str:
        return (
            f"ExperimentKey({self.workload}/{self.version}, "
            f"{self.digest[:12]})"
        )


def experiment_key(
    workload: str,
    config: "SystemConfig",
    version: str,
    engine: Mapping[str, Any] | None = None,
    scenario: Mapping[str, Any] | None = None,
) -> ExperimentKey:
    """Derive the key for one task.

    ``workload`` is the suite name (workload builders are pure functions
    of name + config, so the name plus the config fingerprint pins the
    generated access streams); ``engine`` carries any extra simulation
    options outside the config (e.g. explicit ``sync_counts``);
    ``scenario`` is a scenario-spec fingerprint folded into the engine
    options under the reserved ``"scenario"`` key.
    """
    identity = experiment_identity(workload, version, config, engine, scenario)
    return ExperimentKey(
        workload=workload,
        version=version,
        config_json=_canonical_json(identity["config"]),
        engine_json=_canonical_json(identity["engine"]),
    )


#: Config fields every mapper reads: the workload build (chunk size and
#: data-space size) and the hierarchy's shape (node counts per level).
MAPPING_FIELDS = (
    "num_clients",
    "num_io_nodes",
    "num_storage_nodes",
    "chunk_elems",
    "data_elems",
)

#: Further fields a version's mapper reads (``make_mapper``'s arguments).
#: ``seed`` is absent: it feeds only the random chunk order, which
#: ``make_mapper`` never selects.
_VERSION_FIELDS = {
    "inter": ("balance_threshold",),
    "inter+sched": ("balance_threshold", "alpha", "beta"),
}


def mapping_fields(version: str) -> tuple[str, ...]:
    """The config fields a ``version`` mapping depends on."""
    return MAPPING_FIELDS + _VERSION_FIELDS.get(version, ())


@dataclass(frozen=True)
class MappingKey:
    """The identity of one task's mapping: tasks sharing it map once."""

    workload: str
    version: str
    #: ``(field, value)`` for each of :func:`mapping_fields`.
    fields: tuple[tuple[str, Any], ...]


def mapping_key(workload: str, config: "SystemConfig", version: str) -> MappingKey:
    """Derive the mapping key of a suite-workload task."""
    return MappingKey(
        workload,
        version,
        tuple((name, getattr(config, name)) for name in mapping_fields(version)),
    )


#: Versions that prepare under another version's key: ``inter+sched``
#: is ``inter``'s distribution plus the Fig. 15 pass, whose only extra
#: inputs (``alpha``/``beta``) the distribution never reads.
_GROUP_VERSION = {"inter+sched": "inter"}


def group_key(workload: str, config: "SystemConfig", version: str) -> MappingKey:
    """The key a suite-workload task travels and prepares under."""
    return mapping_key(workload, config, _GROUP_VERSION.get(version, version))
