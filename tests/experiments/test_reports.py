"""Tests for the figure/table experiment modules (small configs)."""

import pytest

from repro.experiments import (
    discussion,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure18,
    table2,
)
from repro.experiments.config import scaled_config
from repro.experiments.report import ExperimentReport


@pytest.fixture(scope="module")
def tiny():
    """8 clients, tiny data: every experiment finishes in seconds."""
    return scaled_config(8)


class TestExperimentReport:
    def test_render(self):
        rep = ExperimentReport(
            "T", "title", ["a", "b"], [["x", 1]], notes=["n"], summary={"s": 0.5}
        )
        out = rep.render()
        assert "T: title" in out and "note: n" in out and "s=0.500" in out

    def test_row_dict(self):
        rep = ExperimentReport("T", "t", ["name", "v"], [["hf", 1], ["sar", 2]])
        d = rep.row_dict()
        assert d["hf"] == ["hf", 1]


class TestTable2:
    def test_structure(self, tiny):
        rep = table2.run(tiny)
        assert rep.experiment_id == "Table 2"
        assert len(rep.rows) == 8
        names = [r[0] for r in rep.rows]
        assert "hf" in names and "wupwise" in names

    def test_miss_rates_in_percent_range(self, tiny):
        rep = table2.run(tiny)
        for row in rep.rows:
            for cell in row[1:4]:
                assert 0.0 <= float(cell) <= 100.0


class TestFigure10:
    def test_structure_and_averages(self, tiny):
        rep = figure10.run(tiny)
        assert rep.rows[-1][0] == "AVERAGE"
        assert set(rep.summary) == {
            f"{v}_{l}" for v in ("intra", "inter") for l in ("L1", "L2", "L3")
        }

    def test_inter_reduces_shared_level_misses(self, tiny):
        rep = figure10.run(tiny)
        assert rep.summary["inter_L2"] < 1.0
        assert rep.summary["inter_L3"] < 1.0


class TestFigure11:
    def test_inter_beats_intra_and_original(self, tiny):
        rep = figure11.run(tiny)
        s = rep.summary
        assert s["inter_io_latency_improvement"] > s["intra_io_latency_improvement"]
        assert s["inter_io_latency_improvement"] > 0.05
        assert s["inter_execution_time_improvement"] > 0.0


class TestFigure12:
    def test_rows_per_topology(self):
        rep = figure12.run(scaled_config(8))
        assert len(rep.rows) == len(figure12.TOPOLOGIES)


class TestFigure13:
    def test_rows_per_capacity_point(self):
        rep = figure13.run(scaled_config(8))
        assert len(rep.rows) == len(figure13.CAPACITY_MULTIPLIERS)

    def test_sched_savings_shrink_with_capacity(self):
        rep = figure13.run(scaled_config(8))
        s = rep.summary
        assert s["inter+sched_io_0.5_0.5_0.5"] <= s["inter+sched_io_2_2_2"]


class TestFigure14:
    def test_rows_per_chunk_size(self):
        rep = figure14.run(scaled_config(8))
        assert len(rep.rows) == len(figure14.CHUNK_SIZES)

    def test_small_chunks_beat_large(self):
        rep = figure14.run(scaled_config(8))
        assert rep.summary["io_16"] < rep.summary["io_128"]


class TestFigure18:
    def test_sched_reduces_l1_misses(self, tiny):
        rep = figure18.run(tiny)
        assert rep.summary["sched_L1_misses"] < 1.0
        assert rep.summary["sched_io"] < 1.0


class TestDiscussion:
    def test_multinest_report(self):
        rep = discussion.run_multinest(scaled_config(8))
        assert "hit_gain" in rep.summary
        assert len(rep.rows) == 2

    def test_dependence_report(self):
        rep = discussion.run_dependences(scaled_config(8))
        assert rep.summary["syncs_fuse"] <= rep.summary["syncs_sync"]

    def test_run_returns_both(self):
        reports = discussion.run(scaled_config(8))
        assert len(reports) == 2

    def test_dependences_honour_prefetch_degree(self):
        def exec_sync(**overrides):
            config = scaled_config(16, **overrides)
            return discussion._build_dependences(config).summary["exec_sync"]

        assert exec_sync(prefetch_degree=2) != exec_sync()


class TestExplain:
    def test_structure(self, tiny):
        from repro.experiments import explain

        rep = explain.run("hf", tiny)
        assert len(rep.rows) == 3
        versions = [r[0] for r in rep.rows]
        assert versions == ["original", "inter", "inter+sched"]

    def test_inter_reduces_footprint_or_stranger_sharing(self, tiny):
        from repro.experiments import explain

        rep = explain.run("hf", tiny)
        rows = rep.row_dict()
        orig, inter = rows["original"], rows["inter"]
        total_fp_down = int(inter[1]) <= int(orig[1])
        stranger_down = float(inter[5]) <= float(orig[5])
        assert total_fp_down or stranger_down

    def test_builds_the_workload_once(self, tiny):
        from repro.experiments import explain
        from repro.telemetry import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            rep = explain.run("hf", tiny)
        builds = [
            h["count"]
            for h in registry.as_dict()["histograms"]
            if h["name"] == "phase.duration_seconds"
            and h["labels"]["phase"].endswith("workload_build")
        ]
        assert builds == [1]
        assert registry.counter("prepare.distribution_reused").value == 1
        # The rows the three separately prepared versions gave.
        assert rep.rows == [
            ["original", 505, 77, "0.48", "25.7", "31.6"],
            ["inter", 395, 62, "0.37", "21.8", "14.3"],
            ["inter+sched", 395, 62, "0.42", "21.8", "14.3"],
        ]

    def test_unknown_workload(self, tiny):
        from repro.experiments import explain
        import pytest as _pytest

        with _pytest.raises(KeyError):
            explain.run("nope", tiny)
