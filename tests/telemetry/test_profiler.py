"""Tests for the nesting phase timer and the manifest tree derived from it."""

import pytest

from repro.telemetry import MetricsRegistry, build_manifest, phase, use_registry


def _tree(reg):
    return build_manifest(reg)["phases"]


def _flatten(nodes, prefix=""):
    out = {}
    for node in nodes:
        path = f"{prefix}/{node['name']}" if prefix else node["name"]
        out[path] = (node["calls"], node["elapsed_s"])
        out.update(_flatten(node.get("children", []), path))
    return out


class TestPhaseTree:
    def test_nested_phases_form_a_tree(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            with phase("mapping"):
                with phase("clustering"):
                    pass
                with phase("chunking"):
                    pass
        (root,) = _tree(reg)
        assert root["name"] == "mapping"
        # Siblings in name order, whatever order they ran in.
        assert [c["name"] for c in root["children"]] == ["chunking", "clustering"]
        assert root["elapsed_s"] >= sum(c["elapsed_s"] for c in root["children"])

    def test_same_name_siblings_accumulate(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            for _ in range(3):
                with phase("prepare"):
                    with phase("streams"):
                        pass
        (root,) = _tree(reg)
        assert root["calls"] == 3
        (streams,) = root["children"]
        assert (streams["name"], streams["calls"]) == ("streams", 3)

    def test_flatten_paths(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            with phase("mapping"):
                with phase("clustering"):
                    pass
        flat = _flatten(_tree(reg))
        assert set(flat) == {"mapping", "mapping/clustering"}
        assert flat["mapping"][1] >= flat["mapping/clustering"][1] >= 0.0

    def test_duration_histogram_recorded_per_path(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            with phase("mapping"):
                with phase("clustering"):
                    pass
        h = reg.histogram("phase.duration_seconds", phase="mapping/clustering")
        assert h.count == 1
        flat = _flatten(_tree(reg))
        assert flat["mapping/clustering"] == (1, h.sum)

    def test_other_labels_are_summed(self):
        # A cluster registry holds per-shard copies of the same path.
        reg = MetricsRegistry()
        reg.histogram("phase.duration_seconds", phase="a", shard="s0").observe(1.0)
        reg.histogram("phase.duration_seconds", phase="a", shard="s1").observe(2.0)
        reg.histogram("phase.duration_seconds", phase="a/b", shard="s1").observe(0.5)
        assert _flatten(_tree(reg)) == {"a": (2, 3.0), "a/b": (1, 0.5)}

    def test_private_registry_starts_at_root(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_registry(outer):
            with phase("execute_plan"):
                with use_registry(inner):
                    with phase("prepare"):
                        pass
        assert set(_flatten(_tree(outer))) == {"execute_plan"}
        assert set(_flatten(_tree(inner))) == {"prepare"}


class TestDisabled:
    def test_elapsed_still_measured_without_registry(self):
        with phase("mapping") as p:
            pass
        assert p.elapsed >= 0.0

    def test_no_tree_recorded_when_disabled(self):
        reg = MetricsRegistry()
        with phase("mapping"):
            pass
        assert _tree(reg) == []
        assert reg.open_phases == []


class TestDecorator:
    def test_decorator_times_calls(self):
        reg = MetricsRegistry()

        @phase("work")
        def work(x):
            return x + 1

        with use_registry(reg):
            assert work(1) == 2
            assert work(2) == 3
        (root,) = _tree(reg)
        assert root["name"] == "work"
        assert root["calls"] == 2

    def test_exception_still_closes_phase(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            with pytest.raises(RuntimeError):
                with phase("mapping"):
                    raise RuntimeError("boom")
            # The stack must be unwound so a new root opens cleanly.
            with phase("simulate"):
                pass
        assert [r["name"] for r in _tree(reg)] == ["mapping", "simulate"]
        assert reg.open_phases == []
