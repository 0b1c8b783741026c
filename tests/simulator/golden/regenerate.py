"""Regenerate the golden trace artifacts and their pinned digests.

Usage::

    PYTHONPATH=src python tests/simulator/golden/regenerate.py

Records every suite workload once (mapping stage + streams) into
``tests/simulator/golden/<workload>.npz`` and pins the *reference*
engine's result digest for each in ``expected.json``.  The equivalence
suite replays these artifacts through both engines and asserts both
reproduce the pinned digests exactly.

Run this only after an intentional engine-semantics change, and say so
in the commit: a digest change here is a behaviour change.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[3]))

from tests.simulator.golden import (  # noqa: E402
    EXPECTED_PATH,
    GOLDEN_VERSION,
    golden_config,
    golden_path,
    machine_digest,
    sim_digest,
)


def main() -> int:
    from repro.simulator.engines import resolve_engine
    from repro.trace.replay import record, replay, save_artifact
    from repro.util.fingerprint import config_fingerprint
    from repro.workloads.suite import workload_names

    reference = resolve_engine("reference")
    config = golden_config()
    expected: dict = {
        "record": "repro-golden-traces",
        "version": GOLDEN_VERSION,
        "config": config_fingerprint(config),
        "workloads": {},
    }
    for name in workload_names():
        artifact = record(name, config=config, version=GOLDEN_VERSION)
        save_artifact(golden_path(name), artifact)
        hierarchy, fs = config.build_hierarchy(), config.build_filesystem()
        sim = reference(
            artifact.streams,
            hierarchy,
            fs,
            latency=config.latency,
            iterations_per_client=artifact.iterations_per_client,
            write_masks=artifact.write_masks,
            prefetch_degree=artifact.prefetch_degree,
            num_data_chunks=artifact.num_data_chunks,
        )
        expected["workloads"][name] = {
            "requests": artifact.total_requests(),
            "result_sha256": sim_digest(sim),
            "machine_sha256": machine_digest(hierarchy, fs),
        }
        print(f"{name}: {artifact.total_requests()} requests, "
              f"result {expected['workloads'][name]['result_sha256'][:12]}")
    with open(EXPECTED_PATH, "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
