"""The benchmark's own tests: seed handling and the output contract.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

from repro.scenario.runner import run_scenario
from repro.simulator.runner import run_experiment
from repro.simulator.serialization import result_to_dict
from repro.util.fingerprint import config_from_fingerprint
from repro.workloads.suite import get_workload

from perfbench import inputs

RUN = pathlib.Path(inputs.__file__).with_name("run.py")


def _sequence(seed: int, cycles: int = 3) -> list[tuple[str, str]]:
    out = []
    for c in range(cycles):
        for r in inputs.cold_map_cycle(seed, c) + inputs.cold_policy_cycle(seed, c):
            out.append((r.label, r.encoded().decode()))
    return out


def _keys(seed: int) -> set[str]:
    keys = {r.task().key.digest for c in range(3) for r in inputs.cold_map_cycle(seed, c)}
    keys |= {r.task().key.digest for c in range(3) for r in inputs.cold_policy_cycle(seed, c)}
    return keys


def _suite_digest(seed: int, workload: str, version: str) -> str:
    config = inputs.salted_config(seed, 0)
    return inputs.result_digest(
        result_to_dict(run_experiment(get_workload(workload), config, version))
    )


def test_same_seed_same_requests_and_digests():
    assert _sequence(7) == _sequence(7)
    assert _suite_digest(7, "sar", "inter") == _suite_digest(7, "sar", "inter")


def test_cycles_are_fresh_keys():
    assert len(_keys(7)) == 3 * (24 + 9)


def test_two_seeds_disjoint_keys_identical_suite_digests():
    assert not _keys(7) & _keys(8)
    pins = inputs.load_pins()
    for seed in (7, 8):
        assert _suite_digest(seed, "sar", "inter+sched") == pins["default/sar/inter+sched"]


def test_policy_traces_differ_across_seeds():
    def digest(seed: int) -> str:
        request = next(r for r in inputs.cold_policy_cycle(seed, 0) if r.label == "zipf-hot/lru")
        config = config_from_fingerprint(request.body["config"])
        return inputs.result_digest(result_to_dict(run_scenario("zipf-hot", config)))

    assert digest(7) != digest(8)


def test_result_line_matches_benchmark_json():
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "cold-policy", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert result["correct"] is True and result["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(
        RUN.parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(RUN.parent.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-map", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
