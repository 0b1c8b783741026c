"""End-to-end CLI flows, driven in-process through ``repro.cli.main``.

Each class replays one user flow the way a shell session would and
pins what that flow must produce:

- a run manifest validates and exports as Prometheus text;
- a warm ``repro all`` over a populated store simulates nothing, and
  the store maintenance commands run over it;
- every registered scenario validates, and the fixed-seed ``zipf-hot``
  run reproduces its pinned result digest on both engines, simulates
  nothing when warm, and its span log feeds ``repro obs``;
- the smoke campaign reproduces its pinned report digest cold (on a
  process pool) and warm (from the store alone), and its manifests
  feed ``campaign status``, ``report`` and ``diff``.
"""

import contextlib
import io
import json
import pathlib

import pytest

from repro.cli import main

REPO = pathlib.Path(__file__).resolve().parents[2]
CAMPAIGN_SMOKE = REPO / "examples" / "campaign_smoke.json"

#: ``repro scenario run zipf-hot --scale 8`` (also BENCH_scenarios.json).
ZIPF_HOT_DIGEST = "9069cfdb60d9b0e90c9ceb8bb2746c75602a7408798b13990fdb6f13a7e15dba"
#: ``repro campaign run examples/campaign_smoke.json`` (also BENCH_campaign.json).
CAMPAIGN_REPORT_DIGEST = (
    "36f181a9e77e970d0679de508f274d9ae7c803a57cb071e3d15b499fec5bc152"
)


@pytest.fixture(autouse=True)
def _restore_default_engine(monkeypatch):
    """``--engine`` sets a process-wide default; undo it after each test."""
    from repro.simulator import engines

    monkeypatch.setattr(engines, "_default_engine", engines._default_engine)


def run(*argv) -> tuple[int, str]:
    """``main(argv)`` with its stdout captured: ``(status, stdout)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main([str(a) for a in argv])
    return status, out.getvalue()


def unlabelled_counters(path) -> dict:
    doc = json.loads(pathlib.Path(path).read_text())
    return {
        e["name"]: e["value"] for e in doc["metrics"]["counters"] if not e["labels"]
    }


class TestRunManifest:
    def test_manifest_validates_and_exports_prometheus(self, tmp_path):
        manifest = tmp_path / "run-manifest.json"
        prom = tmp_path / "run-manifest.prom"
        assert run("table2", "--scale", 16, "--telemetry", manifest)[0] == 0
        status, out = run("metrics", "validate", manifest)
        assert status == 0 and "valid run manifest" in out
        assert run("metrics", "export", manifest, "-o", prom)[0] == 0
        assert "# TYPE repro_cache_accesses_total counter" in prom.read_text()


class TestExecCache:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        """A store populated by a cold pooled ``all``, then re-run warm."""
        root = tmp_path_factory.mktemp("exec-cache")
        argv = ["all", "--scale", 16, "--workers", 2, "--cache", root / "store"]
        for name in ("cold", "warm"):
            telemetry = root / f"run-{name}.json"
            assert run(*argv, "--telemetry", telemetry, "--log-level", "warning")[0] == 0
        return root

    def test_warm_all_simulates_nothing(self, store):
        cold = unlabelled_counters(store / "run-cold.json")
        warm = unlabelled_counters(store / "run-warm.json")
        assert cold["simulator.simulations"] > 0
        assert cold["exec.store.writes"] > 0
        assert warm["simulator.simulations"] == 0
        assert warm["exec.store.hits"] > 0
        assert warm["exec.store.misses"] == 0

    def test_store_maintenance_commands(self, store):
        cache = store / "store"
        status, out = run("cache", "stats", "--cache", cache)
        assert status == 0 and "Result store" in out
        assert run("cache", "gc", "--cache", cache, "--max-bytes", 100000)[0] == 0
        status, out = run("cache", "clear", "--cache", cache)
        assert status == 0 and out.startswith("cleared ")


class TestScenario:
    def test_validate_every_registered_scenario(self):
        status, out = run("scenario", "validate")
        assert status == 0
        assert "  zipf-hot: ok" in out

    def test_list(self):
        status, out = run("scenario", "list")
        assert status == 0
        assert "Registered scenarios" in out and "zipf-hot" in out

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_zipf_hot_reproduces_pinned_digest(self, engine):
        status, out = run("scenario", "run", "zipf-hot", "--scale", 8, "--engine", engine)
        assert status == 0
        assert f"result digest: {ZIPF_HOT_DIGEST}" in out

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        """A cold cached, telemetered and traced run, then a warm re-run."""
        root = tmp_path_factory.mktemp("scenario")
        argv = ["scenario", "run", "zipf-hot", "--scale", 8, "--cache", root / "store"]
        status, out = run(
            *argv, "--telemetry", root / "run-cold.json",
            "--trace", root / "spans.jsonl",
        )
        assert status == 0 and f"result digest: {ZIPF_HOT_DIGEST}" in out
        status, out = run(*argv, "--telemetry", root / "run-warm.json")
        assert status == 0 and f"result digest: {ZIPF_HOT_DIGEST}" in out
        return root

    def test_warm_rerun_simulates_nothing(self, traced):
        assert unlabelled_counters(traced / "run-cold.json")["simulator.simulations"] > 0
        assert unlabelled_counters(traced / "run-warm.json")["simulator.simulations"] == 0

    def test_span_log_feeds_obs_commands(self, traced):
        spans = traced / "spans.jsonl"
        status, out = run("obs", "slo", spans)
        assert status == 0
        assert "per-stage latency" in out and "simulate" in out
        status, out = run("obs", "spans", spans)
        assert status == 0
        assert "cli.scenario" in out
        chrome = traced / "scenario-trace.json"
        assert run("obs", "export", spans, "-o", chrome)[0] == 0
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_obs_trace_filter_is_not_a_span_log_path(self, traced, monkeypatch):
        """``obs spans --trace ID`` filters by request id; it writes no file."""
        monkeypatch.chdir(traced)
        spans = traced / "spans.jsonl"
        trace_id = json.loads(spans.read_text().splitlines()[0])["trace_id"]
        before = sorted(p.name for p in traced.iterdir())
        status, out = run("obs", "spans", spans, "--trace", trace_id)
        assert status == 0
        assert out.startswith(f"trace {trace_id}:")
        assert "  trace: " not in out
        assert sorted(p.name for p in traced.iterdir()) == before


class TestCampaign:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Cold on a 2-worker pool, then warm from the same store."""
        root = tmp_path_factory.mktemp("campaign")
        common = ["campaign", "run", CAMPAIGN_SMOKE, "--cache", root / "store"]
        outputs = {}
        outputs["cold"] = run(
            *common, "-o", root / "cold", "--workers", 2, "--log-level", "warning"
        )
        outputs["warm"] = run(
            *common, "-o", root / "warm", "--telemetry", root / "warm.json",
            "--log-level", "warning",
        )
        return root, outputs

    @pytest.mark.parametrize("which", ["cold", "warm"])
    def test_report_digest_is_pinned(self, runs, which):
        _, outputs = runs
        status, out = outputs[which]
        assert status == 0
        assert f"report digest: {CAMPAIGN_REPORT_DIGEST}" in out

    def test_warm_run_is_served_from_the_store(self, runs):
        root, _ = runs
        counters = unlabelled_counters(root / "warm.json")
        assert counters.get("simulator.simulations", 0) == 0
        assert counters["exec.store.hits"] == 7
        manifest = json.loads((root / "warm" / "manifest.json").read_text())
        assert {c["status"] for c in manifest["cells"].values()} == {"cached"}

    def test_status_report_and_diff(self, runs):
        root, _ = runs
        assert run("campaign", "status", root / "warm")[0] == 0
        status, out = run("campaign", "report", root / "warm", "--json")
        assert status == 0
        assert json.loads(out)["digest"] == CAMPAIGN_REPORT_DIGEST
        status, out = run("campaign", "report", root / "warm")
        assert status == 0 and out.strip()
        assert run("campaign", "diff", root / "cold", root / "warm")[0] == 0
