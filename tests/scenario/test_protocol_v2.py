"""Serve protocol v2: scenario-bearing requests and compatibility."""

import json

import pytest

from repro.exec.plan import SweepPlan
from repro.experiments.config import scaled_config
from repro.scenario.registry import get_scenario
from repro.scenario.runner import add_to_plan, scenario_key
from repro.scenario.spec import ScenarioSpec, spec_to_dict
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode_doc,
    parse_request,
    request_doc,
)


def _parse(**kwargs) -> bytes:
    return parse_request(encode_doc(request_doc(**kwargs)))


class TestScenarioRequests:
    def test_protocol_version_accepts_v2_bodies(self):
        """v3 (batch) still parses the v2 scenario-bearing shape."""
        assert PROTOCOL_VERSION == 3
        doc = request_doc(scenario="zipf-hot", scale=8)
        doc["protocol_version"] = 2
        req = parse_request(json.dumps(doc).encode())
        assert req.scenario == "zipf-hot"

    def test_scenario_by_name(self):
        req = _parse(scenario="zipf-hot", scale=8)
        assert req.scenario == "zipf-hot"
        key = req.to_key()
        assert key.digest == scenario_key(
            get_scenario("zipf-hot"), scaled_config(8)
        ).digest

    def test_inline_spec(self):
        spec = ScenarioSpec(
            name="inline-z",
            kind="zipf",
            params={"alpha": 1.5, "requests_per_client": 128},
        )
        req = _parse(scenario=spec_to_dict(spec), scale=8)
        assert req.to_key().digest == scenario_key(spec, scaled_config(8)).digest

    def test_name_and_inline_spec_same_key(self):
        """Naming a registered scenario and inlining its exact spec must
        resolve to the same experiment."""
        by_name = _parse(scenario="zipf-hot", scale=8).to_key()
        inline = _parse(
            scenario=spec_to_dict(get_scenario("zipf-hot")), scale=8
        ).to_key()
        assert by_name.digest == inline.digest

    def test_unknown_scenario_is_typed_error(self):
        with pytest.raises(ProtocolError) as e:
            _parse(scenario="no-such-scenario", scale=8).to_key()
        assert e.value.code == "unknown_scenario"

    def test_malformed_inline_spec_is_bad_request(self):
        with pytest.raises(ProtocolError) as e:
            _parse(
                scenario={"record": "repro-scenario-spec", "kind": "mystery"},
                scale=8,
            ).to_key()
        assert e.value.code == "bad_request"

    def test_workload_still_required_without_scenario(self):
        doc = request_doc("hf", "inter", scale=8)
        del doc["workload"]
        with pytest.raises(ProtocolError) as e:
            parse_request(json.dumps(doc).encode())
        assert e.value.code in ("bad_request", "unknown_workload")

    def test_scenario_task_carries_fingerprint(self):
        req = _parse(scenario="zipf-hot", scale=8)
        task = req.to_task()
        scen = task.scenario_dict()
        assert scen is not None
        assert scen["kind"] == "zipf"
        plan = SweepPlan()
        add_to_plan(plan, get_scenario("zipf-hot"), scaled_config(8))
        assert plan.tasks == [task]


class TestCompatibility:
    def test_v1_body_still_parses(self):
        """A pre-scenario client pinning protocol_version 1 keeps working."""
        doc = request_doc("hf", "inter", scale=8)
        doc.pop("scenario", None)
        doc["protocol_version"] = 1
        req = parse_request(json.dumps(doc).encode())
        assert req.workload == "hf"
        assert req.scenario is None

    def test_future_protocol_rejected(self):
        doc = request_doc("hf", "inter", scale=8)
        doc["protocol_version"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError) as e:
            parse_request(json.dumps(doc).encode())
        assert e.value.code == "unsupported_protocol"
