"""End-to-end campaign runs: the >=100-cell matrix, warm-resume with
zero re-simulation, failure degradation, manifests and reports."""

import json
import multiprocessing

import pytest

from repro.campaign import (
    build_report,
    campaign_from_dict,
    diff_manifests,
    load_manifest,
    render_report,
    run_campaign,
)
from repro.exec import ResultStore
from repro.exec import executor as executor_module
from repro.exec.executor import ExperimentExecutor
from repro.telemetry import MetricsRegistry, use_registry

from tests.exec.test_executor import (  # noqa: F401 - a fixture
    _exit_in_worker,
    warnings_from_executor,
)

ALL_WORKLOADS = [
    "hf",
    "sar",
    "contour",
    "astro",
    "e_elem",
    "apsi",
    "madbench2",
    "wupwise",
]


def small_spec(**over):
    doc = {
        "record": "repro-campaign",
        "name": "small",
        "scale": 16,
        "axes": {
            "scenarios": ["hf", "sar"],
            "versions": ["original", "inter"],
        },
        "baseline": {"axis": "version", "value": "original"},
    }
    doc.update(over)
    return campaign_from_dict(doc)


def matrix_spec():
    """8 workloads x 4 versions x 2 engines x 2 configs = 128 cells."""
    return campaign_from_dict(
        {
            "record": "repro-campaign",
            "name": "matrix",
            "scale": 16,
            "axes": {
                "scenarios": ALL_WORKLOADS,
                "versions": ["original", "intra", "inter", "inter+sched"],
                "engines": ["fast", "reference"],
                "configs": [
                    {"name": "default"},
                    {"name": "small", "cache_elems": [256, 512, 2048]},
                ],
            },
            "baseline": {"axis": "version", "value": "original"},
        }
    )


def simulations(registry: MetricsRegistry) -> int:
    return registry.counter("simulator.simulations").value


class TestSmallCampaign:
    def test_manifest_structure(self, tmp_path):
        run = run_campaign(small_spec(), manifest_path=tmp_path / "m.json")
        doc = load_manifest(tmp_path / "m.json")
        assert doc["status"] == "complete"
        assert doc["total_cells"] == 4
        assert doc["completed"] == 4
        assert doc["digest"] == run.manifest["digest"]
        for cell in doc["cells"].values():
            assert cell["status"] == "simulated"
            assert len(cell["digest"]) == 64
            assert cell["summary"]["io_latency_ms"] > 0
        assert set(doc["collectors"]) == {"footprint", "hit-rates", "latency"}
        json.dumps(doc)

    def test_progress_callback_counts(self):
        seen = []
        run_campaign(small_spec(), progress=lambda d, t: seen.append((d, t)))
        assert seen[-1] == (4, 4)
        assert all(t == 4 for _, t in seen)
        done = [d for d, _ in seen]
        assert done == sorted(done)

    def test_report_groups_and_deltas(self):
        run = run_campaign(small_spec())
        report = run.report
        assert report["record"] == "repro-campaign-report"
        assert report["cells"] == 4
        assert len(report["groups"]) == 2
        for group in report["groups"]:
            assert group["baseline"]["value"] == "original"
            (variant,) = group["variants"]
            assert variant["value"] == "inter"
            # Inter-processor sharing must beat the original mapping.
            assert variant["delta"]["io_latency_ms"] < 0
            assert variant["ratio"]["io_latency_ms"] < 1.0
        rendered = render_report(report)
        assert "report digest" in rendered
        assert report["digest"] in rendered

    def test_chunk_size_invariant(self, tmp_path):
        runs = [
            run_campaign(small_spec(), chunk_size=cs) for cs in (1, 3, 64)
        ]
        digests = {r.manifest["digest"] for r in runs}
        assert len(digests) == 1
        assert len({r.report["digest"] for r in runs}) == 1

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            run_campaign(small_spec(), chunk_size=0)

    def test_failed_cell_degrades_not_aborts(self, tmp_path):
        # A trace file that exists (so expansion's deep-validate passes)
        # but holds garbage, so the cell fails at simulation time.
        trace = tmp_path / "garbage.jsonl"
        trace.write_text("this is not a trace\n")
        spec = small_spec(
            axes={
                "scenarios": [
                    "hf",
                    {
                        "record": "repro-scenario-spec",
                        "name": "bad-trace",
                        "kind": "trace",
                        "params": {"path": str(trace)},
                    },
                ],
                "versions": ["original"],
            },
        )
        # Default chunk size: both cells share one chunk, and the bad
        # cell must not take its innocent sibling down with it.
        run = run_campaign(spec)
        assert run.failed == ["bad-trace/-/fast/default"]
        assert run.manifest["status"] == "failed"
        by_status = {
            label: c["status"] for label, c in run.manifest["cells"].items()
        }
        assert by_status == {
            "hf/original/fast/default": "simulated",
            "bad-trace/-/fast/default": "failed",
        }
        failed_cell = run.manifest["cells"][run.failed[0]]
        assert "error" in failed_cell


class TestMatrixCampaign:
    @pytest.fixture(scope="class")
    def store_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("campaign-store")

    def test_cold_run_128_cells(self, store_dir):
        spec = matrix_spec()
        store = ResultStore(store_dir / "cache")
        registry = MetricsRegistry()
        with use_registry(registry):
            run = run_campaign(
                spec,
                store=store,
                executor=ExperimentExecutor(workers=2),
                manifest_path=store_dir / "cold",
            )
        assert len(run.plan.cells) == 128
        assert run.manifest["status"] == "complete"
        assert not run.failed
        # Worker snapshots merge back into the live registry.
        assert simulations(registry) == 128
        statuses = {c["status"] for c in run.manifest["cells"].values()}
        assert statuses == {"simulated"}
        # Engine equivalence shows up as pairwise-equal result digests.
        by_digest = {}
        for label, cell in run.manifest["cells"].items():
            key = label.replace("/fast/", "/X/").replace("/reference/", "/X/")
            by_digest.setdefault(key, set()).add(cell["digest"])
        assert all(len(d) == 1 for d in by_digest.values())

    def test_warm_rerun_simulates_nothing(self, store_dir):
        spec = matrix_spec()
        store = ResultStore(store_dir / "cache")
        registry = MetricsRegistry()
        with use_registry(registry):
            run = run_campaign(spec, store=store, manifest_path=store_dir / "warm")
        assert simulations(registry) == 0
        assert registry.counter("exec.store.hits").value == 128
        statuses = {c["status"] for c in run.manifest["cells"].values()}
        assert statuses == {"cached"}
        cold = load_manifest(store_dir / "cold")
        warm = load_manifest(store_dir / "warm")
        # Cache temperature must not leak into identity.
        assert cold["digest"] == warm["digest"]
        assert build_report(cold)["digest"] == build_report(warm)["digest"]
        diff = diff_manifests(cold, warm)
        assert diff["identical"]

    def test_store_stats_recorded(self, store_dir):
        warm = load_manifest(store_dir / "warm")
        assert warm["store"]["before"]["entries"] == 128
        assert warm["store"]["after"]["entries"] == 128
        cold = load_manifest(store_dir / "cold")
        assert cold["store"]["before"]["entries"] == 0
        assert cold["store"]["after"]["entries"] == 128


def three_chunk_spec():
    """hf, sar and contour x original, inter: three 2-cell chunks."""
    return small_spec(
        axes={"scenarios": ["hf", "sar", "contour"], "versions": ["original", "inter"]}
    )


class TestOnePoolPerCampaign:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_dead_worker_in_the_first_chunk_restarts_the_pool_once(
        self, monkeypatch, warnings_from_executor
    ):
        # The pool forks after the patch, so its workers run
        # _exit_in_worker; the in-process retry of chunk 1 survives it.
        monkeypatch.setattr(executor_module, "run_payload", _exit_in_worker)
        registry = MetricsRegistry()
        ex = ExperimentExecutor(workers=2, backoff_s=0.0, mp_context="fork")
        with use_registry(registry):
            run = run_campaign(three_chunk_spec(), executor=ex, chunk_size=2)
        assert run.ok
        assert {c["status"] for c in run.manifest["cells"].values()} == {"simulated"}
        assert simulations(registry) == 6
        assert registry.counter("exec.pool_restarts").value == 1
        kinds = [e["kind"] for e in run.manifest["events"]]
        assert kinds.count("broken-pool") == 1
        assert kinds.count("pool-restart") == 1
        assert len(warnings_from_executor) == 1
        assert "process pool broke" in warnings_from_executor[0].getMessage()
        assert run.report["digest"] == run_campaign(three_chunk_spec()).report["digest"]

    def test_unavailable_pool_is_reported_once_per_campaign(
        self, warnings_from_executor
    ):
        ex = ExperimentExecutor(workers=2, mp_context="no-such-start-method")
        run = run_campaign(three_chunk_spec(), executor=ex, chunk_size=2)
        assert run.ok
        assert len(warnings_from_executor) == 1
        assert "process pool unavailable" in warnings_from_executor[0].getMessage()
        kinds = [e["kind"] for e in run.manifest["events"]]
        assert kinds == ["pool-unavailable"]


class TestSharedMappings:
    def test_prepare_reused_in_the_run_manifest(self, tmp_path, capsys):
        """Two configs share every mapping: half the cells reuse one."""
        from repro.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "record": "repro-campaign",
                    "name": "two-configs",
                    "scale": 16,
                    "axes": {
                        "scenarios": ["hf", "sar"],
                        "versions": ["original", "inter"],
                        "configs": [
                            {"name": "default"},
                            {"name": "wb-pf2", "writeback": True, "prefetch_degree": 2},
                        ],
                    },
                    "baseline": {"axis": "version", "value": "original"},
                }
            )
        )
        telemetry = tmp_path / "run.json"
        argv = ["campaign", "run", str(spec), "-o", str(tmp_path / "out"),
                "--telemetry", str(telemetry), "--log-level", "warning"]
        assert main(argv) == 0
        capsys.readouterr()
        counters = {
            c["name"]: c["value"]
            for c in json.loads(telemetry.read_text())["metrics"]["counters"]
            if not c["labels"]
        }
        assert counters["simulator.simulations"] == 8
        assert counters["prepare.reused"] == 8 / 2

    def test_grouping_leaves_every_result_unchanged(self):
        spec = small_spec(
            axes={
                "scenarios": ["hf", "sar"],
                "versions": ["original", "inter+sched"],
                "configs": [
                    {"name": "default"},
                    {"name": "small", "cache_elems": [256, 512, 2048]},
                ],
            }
        )
        grouped = run_campaign(spec, executor=ExperimentExecutor(workers=2))
        one_by_one = run_campaign(spec, chunk_size=1)
        assert grouped.manifest["digest"] == one_by_one.manifest["digest"]
        assert grouped.report["digest"] == one_by_one.report["digest"]
