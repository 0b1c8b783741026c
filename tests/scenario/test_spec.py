"""ScenarioSpec schema validation, round-trips and fingerprints."""

import dataclasses
import json

import pytest

from repro.scenario.spec import (
    SCENARIO_KINDS,
    ScenarioSpec,
    load_spec_file,
    spec_fingerprint,
    spec_from_dict,
    spec_to_dict,
)


def zipf_spec(**over):
    fields = dict(
        name="z",
        kind="zipf",
        params={"alpha": 1.1, "requests_per_client": 64, "num_chunks": 128},
    )
    fields.update(over)
    return ScenarioSpec(**fields)


class TestValidation:
    def test_kinds_are_closed(self):
        assert SCENARIO_KINDS == ("workload", "zipf", "onoff", "trace")
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", kind="mystery", params={})

    def test_name_required(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="", kind="zipf", params={"alpha": 1.0})

    def test_zipf_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            zipf_spec(params={"alpha": 0.0})
        with pytest.raises(ValueError):
            zipf_spec(params={"alpha": -1.5})

    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="unknown param"):
            zipf_spec(params={"alpha": 1.0, "zerf": 3})

    def test_workload_needs_workload_name(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="w", kind="workload", params={})
        ScenarioSpec(name="w", kind="workload", params={"workload": "hf"})

    def test_trace_needs_path_and_known_format(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="t", kind="trace", params={})
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="t", kind="trace", params={"path": "x.bin", "format": "bin"}
            )
        ScenarioSpec(name="t", kind="trace", params={"path": "x.csv"})

    def test_bad_policy_matrix_rejected(self):
        with pytest.raises(ValueError):
            zipf_spec(policies=("lru", "lru"))  # must be 3 levels
        spec = zipf_spec(policies=("lru", "arc", "rrip"))
        assert spec.policies == ("lru", "arc", "rrip")

    def test_deep_validate_rejects_unknown_policy(self):
        spec = zipf_spec(policies=("lru", "lru", "nope"))
        with pytest.raises(ValueError):
            spec.deep_validate()

    def test_deep_validate_rejects_unknown_workload(self):
        spec = ScenarioSpec(
            name="w", kind="workload", params={"workload": "not-a-workload"}
        )
        with pytest.raises(ValueError):
            spec.deep_validate()

    def test_deep_validate_rejects_missing_trace_file(self, tmp_path):
        spec = ScenarioSpec(
            name="t", kind="trace", params={"path": str(tmp_path / "no.csv")}
        )
        with pytest.raises(ValueError):
            spec.deep_validate()


class TestRoundTrip:
    def test_dict_round_trip_identity(self):
        spec = zipf_spec(
            description="hot zipf", policies=("arc", "lru", "rrip")
        )
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_from_dict_rejects_wrong_record(self):
        doc = spec_to_dict(zipf_spec())
        doc["record"] = "something-else"
        with pytest.raises(ValueError):
            spec_from_dict(doc)

    def test_load_spec_file_json(self, tmp_path):
        spec = zipf_spec(name="from-file")
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec_to_dict(spec)))
        assert load_spec_file(path) == spec

    def test_load_spec_file_yaml(self, tmp_path):
        pytest.importorskip("yaml")
        import yaml

        spec = zipf_spec(name="from-yaml")
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump(spec_to_dict(spec)))
        assert load_spec_file(path) == spec


class TestFingerprint:
    def test_description_excluded_from_identity(self):
        a = zipf_spec(description="one")
        b = zipf_spec(description="two")
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_params_and_policies_included(self):
        base = zipf_spec()
        hot = dataclasses.replace(
            base, params={**base.params, "alpha": 2.0}
        )
        pol = dataclasses.replace(base, policies=("arc", "arc", "arc"))
        prints = [spec_fingerprint(s) for s in (base, hot, pol)]
        assert len({json.dumps(p, sort_keys=True) for p in prints}) == 3
