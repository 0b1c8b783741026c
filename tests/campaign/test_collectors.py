"""Collector contract: order-insensitive add."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import cell_summary, collector_names, make_collector
from repro.campaign.matrix import CampaignCell
from repro.experiments.config import scaled_config
from repro.simulator.runner import run_experiment
from repro.workloads.suite import get_workload

ALL = collector_names()


def _cell(i: int) -> CampaignCell:
    return CampaignCell(
        label=f"cell-{i}",
        coords=(
            ("scenario", "hf"),
            ("version", "original"),
            ("engine", "fast"),
            ("config", "default"),
        ),
        key_digest=f"{i:064d}",
        workload="hf",
        version="original",
    )


@pytest.fixture(scope="module")
def samples():
    config = scaled_config(16)
    out = []
    for i, (w, v) in enumerate(
        [
            ("hf", "original"),
            ("hf", "inter"),
            ("sar", "original"),
            ("sar", "inter+sched"),
            ("contour", "intra"),
        ]
    ):
        out.append((_cell(i), run_experiment(get_workload(w), config, v)))
    return out


def fold(name, pairs):
    c = make_collector(name)
    for cell, result in pairs:
        c.add(cell, result)
    return c


def canon(collector):
    return json.dumps(collector.summary(), sort_keys=True)


class TestRegistry:
    def test_builtins_registered(self):
        assert {"hit-rates", "latency", "footprint", "raw"} <= set(ALL)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown collector"):
            make_collector("nope")

    def test_duplicate_registration_rejected(self):
        from repro.campaign.collectors import HitRateCollector, register_collector

        with pytest.raises(ValueError, match="already registered"):
            register_collector(HitRateCollector)


class TestSummaries:
    def test_cell_summary_shape(self, samples):
        doc = cell_summary(samples[0][1])
        assert set(doc) == {
            "io_latency_ms",
            "execution_time_ms",
            "miss_rates",
            "levels",
            "disk_reads",
            "disk_writes",
        }
        json.dumps(doc)  # JSON-safe

    @pytest.mark.parametrize("name", ALL)
    def test_summary_is_json_safe(self, name, samples):
        json.dumps(fold(name, samples).summary())

    def test_hit_rates_totals(self, samples):
        s = fold("hit-rates", samples).summary()
        assert s["cells"] == len(samples)
        expected = sum(
            r.sim.level_stats["L1"].accesses for _, r in samples
        )
        assert s["levels"]["L1"]["accesses"] == expected

    def test_latency_quantiles_monotone(self, samples):
        s = fold("latency", samples).summary()["io_latency_ms"]
        assert s["count"] == len(samples)
        assert s["p50"] <= s["p95"] <= s["p99"]

    def test_raw_rows_sorted(self, samples):
        rows = fold("raw", reversed(samples)).summary()["rows"]
        assert rows == sorted(rows, key=lambda r: r["cell"])


@pytest.mark.parametrize("name", ALL)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_add_order_insensitive(name, data, samples):
    order = data.draw(st.permutations(range(len(samples))))
    direct = fold(name, samples)
    shuffled = fold(name, [samples[i] for i in order])
    assert canon(direct) == canon(shuffled)
