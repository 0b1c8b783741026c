"""Tests for the canonical experiment keys."""

import dataclasses

import numpy as np
import pytest

from repro.exec.keys import (
    KEY_SCHEMA_VERSION,
    MAPPING_FIELDS,
    ExperimentKey,
    experiment_key,
    group_key,
    mapping_fields,
    mapping_key,
)
from repro.experiments.config import SystemConfig, scaled_config
from repro.simulator.engine import LatencyModel
from repro.simulator.runner import VERSIONS
from repro.storage.disk import DiskParameters
from repro.workloads.suite import workload_names


@pytest.fixture(scope="module")
def config():
    return scaled_config(16)


class TestStability:
    def test_same_inputs_same_digest(self, config):
        a = experiment_key("hf", config, "inter")
        b = experiment_key("hf", config, "inter")
        assert a == b
        assert a.digest == b.digest

    def test_digest_is_hex_sha256(self, config):
        digest = experiment_key("hf", config, "inter").digest
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex

    def test_engine_order_insensitive(self, config):
        a = experiment_key("hf", config, "inter", {"a": 1, "b": 2})
        b = experiment_key("hf", config, "inter", {"b": 2, "a": 1})
        assert a.digest == b.digest

    def test_empty_engine_is_default(self, config):
        assert (
            experiment_key("hf", config, "inter", {}).digest
            == experiment_key("hf", config, "inter").digest
        )


class TestSensitivity:
    def test_workload_changes_digest(self, config):
        assert (
            experiment_key("hf", config, "inter").digest
            != experiment_key("sar", config, "inter").digest
        )

    def test_version_changes_digest(self, config):
        assert (
            experiment_key("hf", config, "inter").digest
            != experiment_key("hf", config, "original").digest
        )

    def test_config_changes_digest(self, config):
        other = config.with_chunk_elems(config.chunk_elems * 2)
        assert (
            experiment_key("hf", config, "inter").digest
            != experiment_key("hf", other, "inter").digest
        )

    def test_seed_changes_digest(self, config):
        import dataclasses

        reseeded = dataclasses.replace(config, seed=config.seed + 1)
        assert (
            experiment_key("hf", config, "inter").digest
            != experiment_key("hf", reseeded, "inter").digest
        )

    def test_engine_changes_digest(self, config):
        assert (
            experiment_key("hf", config, "inter").digest
            != experiment_key("hf", config, "inter", {"x": 1}).digest
        )

    def test_schema_version_changes_digest(self, config):
        key = experiment_key("hf", config, "inter")
        bumped = ExperimentKey(
            workload=key.workload,
            version=key.version,
            config_json=key.config_json,
            engine_json=key.engine_json,
            schema_version=KEY_SCHEMA_VERSION + 1,
        )
        assert bumped.digest != key.digest


class TestAccessors:
    def test_seed_property(self, config):
        assert experiment_key("hf", config, "inter").seed == config.seed

    def test_dict_round_trip(self, config):
        key = experiment_key("hf", config, "inter", {"sync_counts": {"0": 3}})
        back = ExperimentKey.from_dict(key.as_dict())
        assert back == key
        assert back.digest == key.digest

    def test_as_dict_carries_digest(self, config):
        key = experiment_key("hf", config, "inter")
        assert key.as_dict()["digest"] == key.digest


class TestMappingKey:
    """Every config field is in the mapping key or proven not to matter.

    A field outside the key is proven mapper-irrelevant by perturbing it
    alone and re-deriving the pinned mapping-golden digests (one golden
    scale) of every version whose key leaves it out.  A new
    ``SystemConfig`` field fails :meth:`test_every_field_is_classified`
    until it is put in the key or given a perturbation here, so it cannot
    silently alias two mappings onto one key.
    """

    #: Fields outside every version's key, each with a perturbed value.
    IRRELEVANT = {
        "cache_elems": (256, 512, 1024),
        "policy": "fifo",
        "policies": ("arc", "rrip", "fifo"),
        "seed": 7,
        "latency": LatencyModel(level_ms=(0.01, 0.2, 0.5), sync_stall_ms=1.0),
        "disk": DiskParameters(rpm=7200, avg_seek_ms=8.0),
        "prefetch_degree": 3,
        "writeback": True,
    }
    #: Fields only some versions' mappers read.
    VERSION_SPECIFIC = {"balance_threshold": 0.25, "alpha": 0.9, "beta": 0.1}
    SCALE = 8

    def test_every_field_is_classified(self):
        names = {f.name for f in dataclasses.fields(SystemConfig)}
        assert names == (
            set(MAPPING_FIELDS) | set(self.IRRELEVANT) | set(self.VERSION_SPECIFIC)
        )
        for version in VERSIONS:
            assert set(mapping_fields(version)) - set(MAPPING_FIELDS) <= set(
                self.VERSION_SPECIFIC
            )

    @pytest.mark.parametrize("field", sorted(MAPPING_FIELDS + ("balance_threshold", "alpha", "beta")))
    def test_key_fields_change_the_key(self, field):
        base = scaled_config(self.SCALE)
        value = getattr(base, field)
        changed = dataclasses.replace(
            base, **{field: value * 2 if isinstance(value, int) else value / 2}
        )
        for version in VERSIONS:
            same = mapping_key("hf", base, version) == mapping_key("hf", changed, version)
            assert same == (field not in mapping_fields(version)), version

    @pytest.mark.parametrize(
        "field", sorted(list(IRRELEVANT) + list(VERSION_SPECIFIC))
    )
    def test_fields_outside_the_key_leave_the_golden_unchanged(self, field):
        from tests.core.golden import (
            VERSIONS as GOLDEN_VERSIONS,
            compute_digest,
            golden_key,
            load_mappings,
        )

        pinned = load_mappings()["mappings"]
        base = scaled_config(self.SCALE)
        value = {**self.IRRELEVANT, **self.VERSION_SPECIFIC}[field]
        perturbed = dataclasses.replace(base, **{field: value})
        checked = 0
        for version in GOLDEN_VERSIONS:
            if field in mapping_fields(version):
                continue
            for workload in workload_names():
                assert mapping_key(workload, perturbed, version) == mapping_key(
                    workload, base, version
                )
                key = golden_key(self.SCALE, workload, version)
                assert compute_digest(self.SCALE, workload, version, perturbed) == (
                    pinned[key]
                ), key
                checked += 1
        assert checked


class TestGroupKey:
    """``inter+sched`` prepares under ``inter``'s key: they share a distribution.

    The distribution is Fig. 5 alone, so it reads :data:`MAPPING_FIELDS`
    plus ``balance_threshold``; the field walk below proves that
    ``alpha`` and ``beta``, which only the Fig. 15 pass reads, leave the
    ``inter+sched`` mapper's distribution equal to the ``inter`` one.
    """

    SCALE = 8

    def test_inter_sched_groups_under_inter(self):
        base = scaled_config(self.SCALE)
        for version in VERSIONS:
            expected = "inter" if version == "inter+sched" else version
            assert group_key("hf", base, version) == mapping_key("hf", base, expected)
        weighted = dataclasses.replace(base, alpha=0.9, beta=0.1)
        assert group_key("hf", weighted, "inter+sched") == group_key(
            "hf", base, "inter"
        )
        rebalanced = dataclasses.replace(base, balance_threshold=0.25)
        assert group_key("hf", rebalanced, "inter+sched") != group_key(
            "hf", base, "inter+sched"
        )

    @pytest.mark.parametrize("field,value", [("alpha", 0.9), ("beta", 0.1)])
    def test_fig15_weights_leave_the_distribution_unchanged(self, field, value):
        from repro.core.chunking import chunk_matrix_for
        from repro.simulator.runner import make_mapper
        from repro.workloads.base import WorkloadParams
        from repro.workloads.suite import get_workload

        base = scaled_config(self.SCALE)
        perturbed = dataclasses.replace(base, **{field: value})
        params = WorkloadParams(
            chunk_elems=base.chunk_elems, data_chunks=base.data_chunks
        )
        for workload in workload_names():
            nest, space = get_workload(workload).build(params)
            matrix = chunk_matrix_for(nest, space)
            inter, sched = (
                make_mapper(version, config).distribute(
                    nest, space, config.build_hierarchy(), matrix
                )
                for version, config in (("inter", base), ("inter+sched", perturbed))
            )
            assert sched.assignment == inter.assignment, workload
            assert [c.chunk_ids for c in sched.pool] == [
                c.chunk_ids for c in inter.pool
            ], workload
            for a, b in zip(sched.pool, inter.pool):
                assert np.array_equal(a.iterations, b.iterations), workload
