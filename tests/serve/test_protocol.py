"""Tests for the serve wire schemas: parsing, validation, determinism."""

import json

import pytest

from repro.exec.keys import experiment_key
from repro.experiments.config import DEFAULT_CONFIG, scaled_config
from repro.serve.protocol import (
    ERROR_STATUS,
    PROTOCOL_VERSION,
    RESPONSE_RECORD,
    MappingRequest,
    ProtocolError,
    encode_doc,
    error_doc,
    parse_request,
    request_doc,
    response_doc,
)
from repro.trace.replay import config_fingerprint


def _body(**overrides) -> bytes:
    doc = request_doc("hf", "inter", scale=16)
    doc.update(overrides)
    return json.dumps(doc).encode("utf-8")


class TestParseRequest:
    def test_round_trip(self):
        req = parse_request(_body())
        assert req == MappingRequest("hf", "inter", scale=16)

    def test_engine_and_config_survive(self):
        fp = config_fingerprint(scaled_config(16))
        body = encode_doc(
            request_doc("hf", "inter", config=fp, engine={"sync_counts": {"0": 2}})
        )
        req = parse_request(body)
        assert req.config == fp
        assert req.engine == {"sync_counts": {"0": 2}}
        assert req.resolve_config() == scaled_config(16)

    def test_bad_json(self):
        with pytest.raises(ProtocolError) as e:
            parse_request(b"{nope")
        assert e.value.code == "bad_json"

    def test_non_object(self):
        with pytest.raises(ProtocolError) as e:
            parse_request(b"[1,2]")
        assert e.value.code == "bad_request"

    def test_wrong_record(self):
        with pytest.raises(ProtocolError) as e:
            parse_request(_body(record="something-else"))
        assert e.value.code == "bad_request"

    def test_newer_protocol_rejected(self):
        with pytest.raises(ProtocolError) as e:
            parse_request(_body(protocol_version=PROTOCOL_VERSION + 1))
        assert e.value.code == "unsupported_protocol"

    def test_unknown_workload(self):
        with pytest.raises(ProtocolError) as e:
            parse_request(_body(workload="no-such-workload"))
        assert e.value.code == "unknown_workload"

    def test_unknown_version(self):
        with pytest.raises(ProtocolError) as e:
            parse_request(_body(version="no-such-mapper"))
        assert e.value.code == "unknown_version"

    def test_bad_scale(self):
        for scale in (-1, "16", True):
            with pytest.raises(ProtocolError) as e:
                parse_request(_body(scale=scale))
            assert e.value.code == "bad_request"

    def test_bad_config_fingerprint(self):
        with pytest.raises(ProtocolError) as e:
            parse_request(_body(config={"not": "a fingerprint"}))
        assert e.value.code == "bad_request"

    def test_unknown_policy_in_config_rejected(self):
        # Rejected at parse time, before the request is keyed, for the
        # uniform ``policy`` exactly as for per-level ``policies``.
        for field, value in (
            ("policy", "bogus"),
            ("policies", ["lru", "bogus", "lru"]),
        ):
            fp = dict(config_fingerprint(scaled_config(16)), **{field: value})
            with pytest.raises(ProtocolError, match="unknown policy") as e:
                parse_request(_body(config=fp))
            assert e.value.code == "bad_request"

    def test_bad_engine(self):
        with pytest.raises(ProtocolError) as e:
            parse_request(_body(engine=[1, 2]))
        assert e.value.code == "bad_request"


class TestResolution:
    def test_default_config_without_scale(self):
        assert MappingRequest("hf", "inter").resolve_config() == DEFAULT_CONFIG

    def test_config_wins_over_scale(self):
        fp = config_fingerprint(scaled_config(8))
        req = MappingRequest("hf", "inter", scale=16, config=fp)
        assert req.resolve_config() == scaled_config(8)

    def test_key_matches_exec_layer(self):
        req = MappingRequest("hf", "inter", scale=16, engine={"a": 1})
        expected = experiment_key("hf", scaled_config(16), "inter", {"a": 1})
        assert req.to_key() == expected
        task = req.to_task()
        assert task.key == expected
        assert task.engine_dict() == {"a": 1}


class TestDocs:
    def test_encode_doc_is_canonical(self):
        a = encode_doc({"b": 1, "a": {"y": 2, "x": 3}})
        b = encode_doc({"a": {"x": 3, "y": 2}, "b": 1})
        assert a == b
        assert b" " not in a

    def test_response_doc_has_no_per_request_fields(self):
        key = MappingRequest("hf", "inter", scale=16).to_key()
        doc = response_doc(key, {"sim": {}})
        assert set(doc) == {
            "record",
            "protocol_version",
            "digest",
            "workload",
            "version",
            "result",
        }
        assert doc["record"] == RESPONSE_RECORD
        assert doc["digest"] == key.digest

    def test_request_doc_parses(self):
        assert parse_request(encode_doc(request_doc("sar", "original")))

    def test_error_doc_round_trip(self):
        doc = error_doc("overloaded", "queue full", retry_after_s=1.0)
        assert doc["error"]["code"] == "overloaded"
        assert doc["retry_after_s"] == 1.0
        assert "retry_after_s" not in error_doc("internal", "boom")


class TestProtocolError:
    def test_status_derived_from_code(self):
        assert ProtocolError("overloaded", "x").http_status == 429
        assert ProtocolError("draining", "x").http_status == 503
        assert ProtocolError("timeout", "x").http_status == 504

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            ProtocolError("no-such-code", "x")

    def test_every_code_has_a_status(self):
        assert all(
            isinstance(status, int) and 400 <= status < 600
            for status in ERROR_STATUS.values()
        )
