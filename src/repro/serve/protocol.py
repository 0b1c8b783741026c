"""Versioned wire schemas for the mapping service.

One request kind covers the service's job: *run (or fetch) one
experiment* — a (workload, config, version) triple plus engine options,
exactly the identity :class:`~repro.exec.keys.ExperimentKey` hashes.
The config travels as the same ``config_fingerprint`` serialisation the
trace artifacts, run manifests and result-store keys already share, so
a request names precisely the cache entry it would hit; ``scale`` is
the CLI's ``--scale`` shorthand for a scaled default config.

Protocol v2 adds the optional ``scenario`` field: a registered
scenario name (string) or an inline spec document
(:func:`repro.scenario.spec.spec_from_dict`).  A scenario request may
omit ``workload``/``version`` — they derive from the spec — and its
key folds the resolved spec fingerprint into the engine options, so
the server's cache distinguishes scenarios exactly as the local exec
layer does.  v1 request bodies remain valid.

Documents are self-describing (``record`` + ``protocol_version``), and
responses carry **no per-request fields** (no timings, no cache/
coalesce flags — those travel as HTTP headers): identical requests get
byte-identical bodies whether they simulated, coalesced onto another
request in flight, or hit the store.  Errors are typed documents with a
stable machine-readable ``code`` drawn from :data:`ERROR_STATUS`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.exec.keys import ExperimentKey

__all__ = [
    "PROTOCOL_VERSION",
    "REQUEST_RECORD",
    "RESPONSE_RECORD",
    "ERROR_RECORD",
    "BATCH_REQUEST_RECORD",
    "BATCH_RESPONSE_RECORD",
    "MAX_BATCH_ITEMS",
    "ERROR_STATUS",
    "ProtocolError",
    "MappingRequest",
    "apply_default_scale",
    "parse_request",
    "parse_batch_request",
    "request_doc",
    "batch_request_doc",
    "batch_response_doc",
    "response_doc",
    "error_doc",
    "encode_doc",
]

#: Bump when the request/response layout changes; servers reject newer.
#: v2: optional ``scenario`` request field (name or inline spec).
#: v3: batch documents (``/v1/batch`` — several requests, answered
#: item by item in order), served directly and fanned out per shard by
#: the :mod:`repro.shard` router.
PROTOCOL_VERSION = 3

REQUEST_RECORD = "repro-serve-request"
RESPONSE_RECORD = "repro-serve-response"
ERROR_RECORD = "repro-serve-error"
BATCH_REQUEST_RECORD = "repro-serve-batch-request"
BATCH_RESPONSE_RECORD = "repro-serve-batch-response"

#: Hard cap on requests per batch document — a fairness bound, not a
#: framing one (the body-size limit would allow far more): one giant
#: batch must not monopolise a worker's admission queue.
MAX_BATCH_ITEMS = 256

#: Typed error codes and the HTTP status each maps to.
ERROR_STATUS = {
    "bad_json": 400,
    "bad_request": 400,
    "unsupported_protocol": 400,
    "unknown_workload": 400,
    "unknown_version": 400,
    "unknown_scenario": 400,
    "not_found": 404,
    "method_not_allowed": 405,
    "payload_too_large": 413,
    "overloaded": 429,
    "internal": 500,
    "bad_gateway": 502,
    "draining": 503,
    "timeout": 504,
}


class ProtocolError(Exception):
    """A request the service rejects, with a typed code.

    ``code`` must be a key of :data:`ERROR_STATUS`; ``http_status``
    derives from it.  ``retry_after_s`` is set for retryable rejections
    (overload, drain) and surfaces as the ``Retry-After`` header.
    """

    def __init__(self, code: str, message: str, retry_after_s: float | None = None):
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.http_status = ERROR_STATUS[code]
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class MappingRequest:
    """A parsed, validated experiment request.

    ``config`` (a fingerprint dict) wins over ``scale``; with neither
    the server's default config applies.  ``engine`` carries extra
    simulation options exactly as the exec layer takes them
    (e.g. ``sync_counts``).  ``scenario`` (v2) is a registered name or
    an inline spec document; when set, ``workload``/``version`` derive
    from the spec (an explicit ``version`` still overrides for
    workload-kind scenarios).
    """

    workload: str = ""
    version: str = ""
    scale: int = 0
    config: Mapping[str, Any] | None = None
    engine: Mapping[str, Any] = field(default_factory=dict)
    scenario: str | Mapping[str, Any] | None = None

    def resolve_config(self):
        """The :class:`SystemConfig` this request names."""
        from repro.experiments.config import DEFAULT_CONFIG, scaled_config
        from repro.util.fingerprint import config_from_fingerprint

        if self.config is not None:
            return config_from_fingerprint(dict(self.config))
        if self.scale:
            return scaled_config(self.scale)
        return DEFAULT_CONFIG

    def _scenario_identity(self):
        """(workload, version, config, scenario fingerprint) for v2."""
        from repro.scenario.registry import resolve_scenario
        from repro.scenario.runner import effective_config, scenario_identity

        spec = resolve_scenario(self.scenario)
        workload, version, fingerprint = scenario_identity(
            spec, self.version or None
        )
        return workload, version, effective_config(
            spec, self.resolve_config()
        ), fingerprint

    def to_key(self) -> ExperimentKey:
        return self.to_task().key

    def to_task(self):
        """The :class:`~repro.exec.plan.ExperimentTask` to execute."""
        from repro.exec.plan import ExperimentTask

        if self.scenario is not None:
            workload, version, config, fingerprint = self._scenario_identity()
            return ExperimentTask.create(
                workload, config, version, self.engine, fingerprint
            )
        return ExperimentTask.create(
            self.workload, self.resolve_config(), self.version, self.engine
        )


def apply_default_scale(
    mapping: MappingRequest, default_scale: int
) -> MappingRequest:
    """Resolve a server-side default scale into the request.

    A request naming neither a config nor a scale means "the server's
    default"; folding that in *before* the key is computed is what
    keeps the router's routing key and the worker's execution key the
    same object (both sides run this with the same ``default_scale``).
    """
    if mapping.config is None and mapping.scale == 0 and default_scale:
        return replace(mapping, scale=default_scale)
    return mapping


def _bad(message: str) -> ProtocolError:
    return ProtocolError("bad_request", message)


def _parse_scenario(ref: Any):
    """Validate the v2 ``scenario`` field; returns the normalised ref."""
    from repro.scenario.registry import get_scenario, scenario_names
    from repro.scenario.spec import spec_from_dict

    if isinstance(ref, str):
        try:
            get_scenario(ref)
        except KeyError:
            raise ProtocolError(
                "unknown_scenario",
                f"unknown scenario {ref!r}; choose from {scenario_names()}",
            ) from None
        return ref
    if isinstance(ref, dict):
        try:
            spec_from_dict(ref)
        except ValueError as exc:
            raise _bad(f"scenario spec is invalid ({exc})") from None
        return ref
    raise _bad("scenario must be a registered name or a spec object")


def _check_engine(engine: Any) -> None:
    """Accept only the options the exec layer reads, before keying:
    another key would re-simulate an identical result, and a bad value
    would fail only in the backend."""
    from repro.simulator.engines import ENGINE_NAMES

    if not isinstance(engine, dict):
        raise _bad("engine must be an object")
    if set(engine) - {"engine", "sync_counts"}:
        raise _bad("engine options must be only engine and sync_counts")
    if engine.get("engine", ENGINE_NAMES[0]) not in ENGINE_NAMES:
        raise _bad(f"engine.engine must be one of {list(ENGINE_NAMES)}")
    counts = engine.get("sync_counts", {})
    if not isinstance(counts, dict) or not all(
        c.isascii() and c.isdigit() and type(n) is int and n >= 0
        for c, n in counts.items()
    ):
        raise _bad("engine.sync_counts must map client ids to non-negative ints")


def _decode_body(body: bytes) -> dict[str, Any]:
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise ProtocolError("bad_json", "request body is not valid JSON") from None
    if not isinstance(doc, dict):
        raise _bad("request must be a JSON object")
    return doc


def parse_request(body: bytes) -> MappingRequest:
    """Parse and validate one request body; raises :class:`ProtocolError`."""
    doc = _decode_body(body)
    if doc.get("record") != REQUEST_RECORD:
        raise _bad(f"record must be {REQUEST_RECORD!r}")
    return _parse_request_doc(doc)


def parse_batch_request(body: bytes) -> list[MappingRequest]:
    """Parse and validate one batch body into its per-item requests.

    Validation is all-or-nothing — a malformed item fails the whole
    batch with a message naming its index (execution failures, by
    contrast, travel in-band as per-item error documents).
    """
    doc = _decode_body(body)
    if doc.get("record") != BATCH_REQUEST_RECORD:
        raise _bad(f"record must be {BATCH_REQUEST_RECORD!r}")
    version = doc.get("protocol_version")
    if not isinstance(version, int):
        raise _bad("protocol_version must be an integer")
    if version > PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported_protocol",
            f"protocol v{version} is newer than this server's "
            f"v{PROTOCOL_VERSION}",
        )
    requests = doc.get("requests")
    if not isinstance(requests, list) or not requests:
        raise _bad("requests must be a non-empty array")
    if len(requests) > MAX_BATCH_ITEMS:
        raise _bad(
            f"batch has {len(requests)} requests (limit {MAX_BATCH_ITEMS})"
        )
    mappings = []
    for index, item in enumerate(requests):
        if not isinstance(item, dict) or item.get("record") != REQUEST_RECORD:
            raise _bad(f"requests[{index}] must be a {REQUEST_RECORD!r} object")
        try:
            mappings.append(_parse_request_doc(item))
        except ProtocolError as exc:
            raise ProtocolError(
                exc.code, f"requests[{index}]: {exc.message}", exc.retry_after_s
            ) from None
    return mappings


def _parse_request_doc(doc: dict[str, Any]) -> MappingRequest:
    from repro.simulator.runner import VERSIONS
    from repro.util.fingerprint import config_from_fingerprint
    from repro.workloads.suite import workload_names

    version = doc.get("protocol_version")
    if not isinstance(version, int):
        raise _bad("protocol_version must be an integer")
    if version > PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported_protocol",
            f"protocol v{version} is newer than this server's "
            f"v{PROTOCOL_VERSION}",
        )
    scenario = doc.get("scenario")
    if scenario is not None:
        scenario = _parse_scenario(scenario)
    workload = doc.get("workload")
    if scenario is None:
        if not isinstance(workload, str) or not workload:
            raise _bad("workload must be a non-empty string")
        if workload not in workload_names():
            raise ProtocolError(
                "unknown_workload",
                f"unknown workload {workload!r}; choose from {workload_names()}",
            )
    mapper = doc.get("version")
    if scenario is None:
        if not isinstance(mapper, str) or not mapper:
            raise _bad("version must be a non-empty string")
    if mapper is not None and mapper != "" and mapper not in VERSIONS:
        raise ProtocolError(
            "unknown_version",
            f"unknown version {mapper!r}; choose from {list(VERSIONS)}",
        )
    scale = doc.get("scale", 0)
    if not isinstance(scale, int) or isinstance(scale, bool) or scale < 0:
        raise _bad("scale must be a non-negative integer")
    config = doc.get("config")
    if config is not None:
        if not isinstance(config, dict):
            raise _bad("config must be a fingerprint object or null")
        try:
            config_from_fingerprint(config)
        except (KeyError, TypeError, ValueError) as exc:
            raise _bad(f"config is not a valid fingerprint ({exc})") from None
    engine = doc.get("engine") or {}
    _check_engine(engine)
    return MappingRequest(
        workload=workload or "",
        version=mapper or "",
        scale=scale,
        config=config,
        engine=engine,
        scenario=scenario,
    )


def request_doc(
    workload: str = "",
    version: str = "",
    scale: int = 0,
    config: Mapping[str, Any] | None = None,
    engine: Mapping[str, Any] | None = None,
    scenario: str | Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Build the request body :func:`parse_request` accepts (client side)."""
    doc = {
        "record": REQUEST_RECORD,
        "protocol_version": PROTOCOL_VERSION,
        "workload": workload,
        "version": version,
        "scale": scale,
        "config": dict(config) if config is not None else None,
        "engine": dict(engine or {}),
    }
    if scenario is not None:
        doc["scenario"] = (
            scenario if isinstance(scenario, str) else dict(scenario)
        )
    return doc


def batch_request_doc(requests: list[dict[str, Any]]) -> dict[str, Any]:
    """Wrap request documents (see :func:`request_doc`) into one batch body."""
    return {
        "record": BATCH_REQUEST_RECORD,
        "protocol_version": PROTOCOL_VERSION,
        "requests": list(requests),
    }


def batch_response_doc(items: list[dict[str, Any]]) -> dict[str, Any]:
    """The batch answer: response/error documents in request order.

    Each item is self-describing (``record`` distinguishes a result
    from a typed error), so clients handle partial failure per item.
    """
    return {
        "record": BATCH_RESPONSE_RECORD,
        "protocol_version": PROTOCOL_VERSION,
        "items": list(items),
    }


def response_doc(key: ExperimentKey, result: dict[str, Any]) -> dict[str, Any]:
    """The response body for one completed request.

    Deterministic per key: everything request-specific (latency, cache
    temperature, coalescing) is deliberately excluded so that identical
    requests yield byte-identical bodies (see :func:`encode_doc`).
    """
    return {
        "record": RESPONSE_RECORD,
        "protocol_version": PROTOCOL_VERSION,
        "digest": key.digest,
        "workload": key.workload,
        "version": key.version,
        "result": result,
    }


def error_doc(
    code: str, message: str, retry_after_s: float | None = None
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "record": ERROR_RECORD,
        "protocol_version": PROTOCOL_VERSION,
        "error": {"code": code, "message": message},
    }
    if retry_after_s is not None:
        doc["retry_after_s"] = retry_after_s
    return doc


def encode_doc(doc: dict[str, Any]) -> bytes:
    """Canonical body encoding: sorted keys, no whitespace.

    The canonicalisation is what makes "byte-identical responses for
    identical requests" hold across cache temperature and coalescing.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
