"""Tests for the command-line driver."""

import json
import pathlib

import pytest

from repro.cli import EXPERIMENTS, main

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


class TestCli:
    def test_experiments_registry(self):
        assert set(EXPERIMENTS) == {
            "table2",
            "figure10",
            "figure11",
            "figure12",
            "figure13",
            "figure14",
            "figure18",
        }

    def test_table2_scaled(self, capsys):
        assert main(["table2", "--scale", "16"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "hf" in out

    def test_figure11_scaled(self, capsys):
        assert main(["figure11", "--scale", "16"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert "AVERAGE" in out

    def test_suite_command(self, capsys):
        assert main(["suite", "--scale", "16"]) == 0
        out = capsys.readouterr().out
        assert "inter+sched" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro 1.0.0" in capsys.readouterr().out


class TestExplainCommand:
    def test_explain_scaled(self, capsys):
        assert main(["explain", "--workload", "sar", "--scale", "16"]) == 0
        out = capsys.readouterr().out
        assert "Explain (sar)" in out
        assert "inter+sched" in out

    def test_unknown_workload_exit_code(self, capsys):
        assert main(["explain", "--workload", "nosuch", "--scale", "16"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err


class TestAllCommand:
    def test_scale_threaded_to_every_experiment(self, monkeypatch, capsys):
        """`repro all --scale N` must pass the scaled config everywhere
        (it used to silently run every experiment at full size)."""
        from repro import cli as cli_mod
        from repro.experiments.report import ExperimentReport

        seen: list = []

        def stub_run(config=None):
            seen.append(config)
            return ExperimentReport("stub", "stub", ["x"], [["y"]])

        def stub_discussion(config=None):
            seen.append(config)
            return []

        monkeypatch.setattr(
            cli_mod, "EXPERIMENTS", {name: stub_run for name in EXPERIMENTS}
        )
        monkeypatch.setattr(cli_mod.discussion, "run", stub_discussion)
        assert main(["all", "--scale", "16"]) == 0
        assert len(seen) == len(EXPERIMENTS) + 1  # every figure + discussion
        assert all(c is not None and c.num_clients == 4 for c in seen)

    def test_experiment_list_derived_from_registry(self, monkeypatch, capsys):
        from repro import cli as cli_mod
        from repro.experiments.report import ExperimentReport

        ran: list[str] = []
        monkeypatch.setattr(
            cli_mod,
            "EXPERIMENTS",
            {
                name: (lambda n: lambda config=None: (
                    ran.append(n), ExperimentReport(n, n, ["x"], [])
                )[1])(name)
                for name in EXPERIMENTS
            },
        )
        monkeypatch.setattr(cli_mod.discussion, "run", lambda config=None: [])
        assert main(["all", "--scale", "16"]) == 0
        assert ran == list(EXPERIMENTS)


class TestJsonExport:
    def test_suite_json(self, capsys, tmp_path):
        out_file = tmp_path / "r.json"
        assert main(["suite", "--scale", "16", "--json", str(out_file)]) == 0
        assert out_file.exists()

        data = json.loads(out_file.read_text())
        assert "hf" in data and "inter" in data["hf"]


class TestTraceCommands:
    @pytest.fixture()
    def recorded(self, tmp_path):
        path = tmp_path / "hf.trace.npz"
        assert main([
            "trace", "record", "--workload", "hf", "--scale", "16",
            "-o", str(path),
        ]) == 0
        return path

    def test_record_writes_artifact(self, tmp_path, capsys):
        path = tmp_path / "hf.trace.npz"
        assert main([
            "trace", "record", "--workload", "hf", "--scale", "16",
            "-o", str(path),
        ]) == 0
        assert path.exists()
        assert "recorded hf/inter+sched" in capsys.readouterr().err

    def test_record_unknown_workload_exit_code(self, tmp_path, capsys):
        assert main([
            "trace", "record", "--workload", "nosuch", "--scale", "16",
            "-o", str(tmp_path / "x.npz"),
        ]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_record_with_events_jsonl(self, tmp_path, capsys):
        art = tmp_path / "hf.trace.npz"
        events = tmp_path / "hf.events.jsonl"
        assert main([
            "trace", "record", "--workload", "hf", "--scale", "16",
            "-o", str(art), "--events", str(events),
        ]) == 0
        from repro.trace import read_events_jsonl

        meta, evs = read_events_jsonl(events)
        assert meta["workload"] == "hf"
        assert evs

    def test_replay_prints_summary(self, recorded, capsys):
        assert main(["trace", "replay", str(recorded)]) == 0
        out = capsys.readouterr().out
        assert "Replay: hf/inter+sched" in out
        assert "miss rate" in out

    def test_replay_with_overrides(self, recorded, capsys):
        assert main([
            "trace", "replay", str(recorded),
            "--cache-elems", "2048,4096,16384", "--policy", "fifo",
            "--prefetch-degree", "1",
        ]) == 0
        assert "Replay" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--cache-elems", "1,2"],
            ["--cache-elems", "a,b,c"],
            ["--cache-elems", "0,0,0"],
            ["--policy", "bogus"],
            ["--prefetch-degree", "-1"],
        ],
        ids=["short", "nonint", "zero", "policy", "prefetch"],
    )
    def test_replay_bad_cache_elems_exit_code(self, recorded, capsys, flags):
        assert main(["trace", "replay", str(recorded), *flags]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_replay_missing_artifact_exit_code(self, tmp_path, capsys):
        assert main(["trace", "replay", str(tmp_path / "missing.npz")]) == 2

    def test_record_unwritable_output_exit_code(self, tmp_path, capsys):
        assert main([
            "trace", "record", "--workload", "hf", "--scale", "16",
            "-o", str(tmp_path / "no" / "such" / "dir" / "x.npz"),
        ]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_export_unwritable_output_exit_code(self, recorded, capsys):
        assert main([
            "trace", "export", str(recorded),
            "-o", str(recorded.parent / "no" / "such" / "t.json"),
        ]) == 2

    def test_export_chrome(self, recorded, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "export", str(recorded), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_export_jsonl(self, recorded, tmp_path, capsys):
        out = tmp_path / "events.jsonl"
        assert main([
            "trace", "export", str(recorded), "--format", "jsonl",
            "-o", str(out),
        ]) == 0
        from repro.trace import read_events_jsonl

        _, evs = read_events_jsonl(out)
        assert evs

    def test_diff_from_artifacts(self, tmp_path, capsys):
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        assert main([
            "trace", "record", "--workload", "hf", "--scale", "16",
            "--mapper", "original", "-o", str(a),
        ]) == 0
        assert main([
            "trace", "record", "--workload", "hf", "--scale", "16",
            "--mapper", "inter+sched", "-o", str(b),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "Trace diff: original vs inter+sched" in out
        assert "first divergence" in out

    def test_diff_record_mode(self, capsys):
        assert main([
            "trace", "diff", "--workload", "hf", "--scale", "16",
            "-a", "original", "-b", "inter+sched", "--top", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "Trace diff" in out and "L3" in out

    def test_diff_without_inputs_exit_code(self, capsys):
        assert main(["trace", "diff"]) == 2

    def test_diff_one_artifact_exit_code(self, recorded, capsys):
        assert main(["trace", "diff", str(recorded)]) == 2


class TestTelemetryFlag:
    @pytest.fixture()
    def manifest(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        assert main([
            "table2", "--scale", "16", "--telemetry", str(path),
        ]) == 0
        capsys.readouterr()
        return path

    def test_manifest_written_and_valid(self, manifest):
        from repro.telemetry import load_manifest

        doc = load_manifest(manifest)  # raises on schema problems
        assert doc["command"] == "table2"

    def test_manifest_has_phases_and_cache_metrics(self, manifest):
        doc = json.loads(manifest.read_text())
        flat_names = {n["name"] for n in doc["phases"]}
        assert {"prepare", "simulate"} <= flat_names
        counters = {
            (c["name"], c["labels"].get("level"))
            for c in doc["metrics"]["counters"]
        }
        assert ("cache.accesses", "L1") in counters
        assert ("cache.accesses", "L3") in counters
        # Pre-declared pipeline counters are present even though table2
        # only maps the Original version.
        names = {c["name"] for c in doc["metrics"]["counters"]}
        assert {"clustering.merges", "balancing.moves"} <= names

    def test_phase_tree_same_on_every_execution_path(self, tmp_path, capsys):
        def flatten(nodes, prefix=""):
            for node in nodes:
                path = f"{prefix}/{node['name']}" if prefix else node["name"]
                yield path, node
                yield from flatten(node.get("children", []), path)

        trees = []
        for i, flags in enumerate(
            ([], ["--cache", str(tmp_path / "cache")], ["--workers", "2"])
        ):
            path = tmp_path / f"run{i}.json"
            assert main([
                "table2", "--scale", "16", "--telemetry", str(path), *flags,
            ]) == 0
            doc = json.loads(path.read_text())
            sums = {
                h["labels"]["phase"]: h["sum"]
                for h in doc["metrics"]["histograms"]
                if h["name"] == "phase.duration_seconds"
            }
            nodes = dict(flatten(doc["phases"]))
            for p, node in nodes.items():
                assert node["elapsed_s"] == sums[p], p
            trees.append({p: node["calls"] for p, node in nodes.items()})
        capsys.readouterr()
        assert trees[0] == trees[1] == trees[2]
        assert {"prepare", "prepare/mapping", "simulate"} <= set(trees[0])

    def test_manifest_threads_report_summary(self, manifest):
        doc = json.loads(manifest.read_text())
        (entry,) = doc["reports"]
        assert entry["experiment_id"] == "Table 2"
        assert entry["summary"]  # table2 publishes a machine-readable summary

    def test_figure_run_emits_clustering_counters(self, tmp_path, capsys):
        path = tmp_path / "f11.json"
        assert main([
            "figure11", "--scale", "16", "--telemetry", str(path),
        ]) == 0
        doc = json.loads(path.read_text())
        merges = [
            c for c in doc["metrics"]["counters"]
            if c["name"] == "clustering.merges" and c["labels"]
        ]
        assert merges and any(c["value"] > 0 for c in merges)

    def test_unwritable_manifest_exit_code(self, tmp_path, capsys):
        assert main([
            "table2", "--scale", "16",
            "--telemetry", str(tmp_path / "no" / "dir" / "run.json"),
        ]) == 2
        assert "repro: error:" in capsys.readouterr().err


class TestMetricsCommands:
    @pytest.fixture()
    def manifests(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["table2", "--scale", "16", "--telemetry", str(a)]) == 0
        assert main(["table2", "--scale", "8", "--telemetry", str(b)]) == 0
        capsys.readouterr()
        return a, b

    def test_show(self, manifests, capsys):
        a, _ = manifests
        assert main(["metrics", "show", str(a)]) == 0
        out = capsys.readouterr().out
        assert "command: table2" in out
        assert "phases:" in out
        assert "cache.accesses" in out

    def test_validate_accepts_good_manifest(self, manifests, capsys):
        a, _ = manifests
        assert main(["metrics", "validate", str(a)]) == 0
        assert "valid run manifest" in capsys.readouterr().out

    def test_validate_rejects_bad_manifest(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"record": "nope"}')
        assert main(["metrics", "validate", str(bad)]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_export_prometheus(self, manifests, capsys):
        a, _ = manifests
        assert main(["metrics", "export", str(a)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_cache_accesses_total counter" in out
        assert "repro_phase_seconds" in out

    def test_export_to_file(self, manifests, tmp_path, capsys):
        a, _ = manifests
        out_path = tmp_path / "run.prom"
        assert main(["metrics", "export", str(a), "-o", str(out_path)]) == 0
        assert "repro_cache_accesses_total" in out_path.read_text()

    def test_diff_two_manifests(self, manifests, capsys):
        a, b = manifests
        assert main(["metrics", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "config changes" in out
        assert "changed metrics" in out

    def test_diff_missing_file_exit_code(self, manifests, tmp_path, capsys):
        a, _ = manifests
        missing = tmp_path / "missing.json"
        assert main(["metrics", "diff", str(a), str(missing)]) == 2
        assert "repro: error:" in capsys.readouterr().err


class TestLoggingFlags:
    def test_timing_line_on_stderr(self, capsys):
        assert main(["table2", "--scale", "16"]) == 0
        err = capsys.readouterr().err
        assert "[" in err and "s]" in err

    def test_verbose_switches_to_debug_format(self, capsys):
        assert main(["table2", "--scale", "16", "-v"]) == 0
        assert "repro.cli" in capsys.readouterr().err

    def test_error_level_silences_timing(self, capsys):
        assert main(["table2", "--scale", "16", "--log-level", "error"]) == 0
        err = capsys.readouterr().err
        assert "s]" not in err


class TestExecFlags:
    def test_workers_flag_matches_serial_output(self, capsys):
        assert main(["table2", "--scale", "16"]) == 0
        serial = capsys.readouterr().out
        assert main(["table2", "--scale", "16", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_cache_flag_warm_run_simulates_nothing(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        cold = str(tmp_path / "cold.json")
        warm = str(tmp_path / "warm.json")
        args = ["table2", "--scale", "16", "--cache", cache]
        assert main(args + ["--telemetry", cold]) == 0
        assert main(args + ["--telemetry", warm]) == 0
        capsys.readouterr()

        def counters(path):
            doc = json.loads(open(path).read())
            return {
                e["name"]: e["value"]
                for e in doc["metrics"]["counters"]
                if not e["labels"]
            }

        assert counters(cold)["simulator.simulations"] > 0
        assert counters(warm)["simulator.simulations"] == 0
        assert counters(warm)["exec.store.hits"] > 0
        assert counters(warm)["exec.store.misses"] == 0

    def test_manifest_records_store_state(self, tmp_path):
        cache = str(tmp_path / "cache")
        manifest = str(tmp_path / "run.json")
        assert main(
            ["table2", "--scale", "16", "--cache", cache, "--telemetry", manifest]
        ) == 0
        doc = json.loads(open(manifest).read())
        store = doc["meta"]["result_store"]
        assert store["entries"] == store["writes"] > 0


class TestCacheCommands:
    @pytest.fixture()
    def populated(self, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["table2", "--scale", "16", "--cache", cache]) == 0
        return cache

    def test_stats(self, populated, capsys):
        assert main(["cache", "stats", "--cache", populated]) == 0
        out = capsys.readouterr().out
        assert "Result store" in out
        assert "entries" in out

    def test_gc_to_budget(self, populated, capsys):
        assert main(
            ["cache", "gc", "--cache", populated, "--max-bytes", "1"]
        ) == 0
        assert "evicted" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache", populated]) == 0
        # Everything was over the 1-byte budget.
        assert "entries    0" in capsys.readouterr().out

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_gc_rejects_non_positive_budget(self, populated, budget, capsys):
        assert main(
            ["cache", "gc", "--cache", populated, "--max-bytes", budget]
        ) == 2
        assert "repro: error:" in capsys.readouterr().err
        assert main(["cache", "stats", "--cache", populated]) == 0
        assert "entries    0" not in capsys.readouterr().out

    def test_cache_max_bytes_rejects_non_positive(self, tmp_path, capsys):
        assert main([
            "table2", "--scale", "16", "--cache", str(tmp_path / "cache"),
            "--cache-max-bytes", "0",
        ]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_non_positive_env_budget_ignored(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "-4")
        cache = str(tmp_path / "cache")
        assert main(["table2", "--scale", "16", "--cache", cache]) == 0
        err = capsys.readouterr().err
        assert "ignoring REPRO_CACHE_MAX_BYTES='-4': not a positive integer" in err

    def test_clear(self, populated, capsys):
        assert main(["cache", "clear", "--cache", populated]) == 0
        assert "cleared" in capsys.readouterr().out

    def test_action_required(self):
        with pytest.raises(SystemExit):
            main(["cache"])


class TestErrorBoundary:
    """An unusable path is a ``repro: error:`` and exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "--scale", "16", "--json", "{blocker}/out.json"],
            ["campaign", "run", "{spec}", "-o", "{blocker}"],
            ["cache", "stats", "--cache", "{blocker}"],
            ["cache", "clear", "--cache", "{blocker}"],
            ["cache", "gc", "--cache", "{blocker}", "--max-bytes", "10"],
            ["table2", "--scale", "16", "--cache", "{blocker}"],
        ],
        ids=["suite-json", "campaign-out", "cache-stats", "cache-clear",
             "cache-gc", "exec-cache"],
    )
    def test_unusable_path_exit_code(self, tmp_path, capsys, argv):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory\n")
        spec = EXAMPLES / "campaign_smoke.json"
        argv = [a.format(blocker=blocker, spec=spec) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["status", "report", "diff"])
    def test_truncated_manifest_names_the_file(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        out.mkdir()
        manifest = out / "manifest.json"
        manifest.write_text('{"record": "repro-campaign-manifest", "cells": {"hf/i')
        argv = ["campaign", command, str(out)]
        if command == "diff":
            argv.append(str(out))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"repro: error: {manifest}: truncated or corrupt manifest:" in err
        assert "Traceback" not in err

    def test_failure_under_trace_and_telemetry(self, tmp_path, capsys):
        spans = tmp_path / "s.jsonl"
        manifest = tmp_path / "m.json"
        assert main([
            "explain", "--workload", "nope", "--scale", "16",
            "--trace", str(spans), "--telemetry", str(manifest),
        ]) == 2
        assert "repro: error:" in capsys.readouterr().err
        assert spans.exists()
        assert not manifest.exists()
