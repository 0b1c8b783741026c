"""Regenerate ``digests.json``: the result digest of every suite cell.

Run from the repository root after a change that is meant to alter
results (never to make a failing benchmark pass)::

    python3 perfbench/pin_digests.py

Each cell is computed in-process under two different salts; a cell
whose digest depends on the salt is an error, since the benchmark's
correctness gate relies on suite results being seed-independent.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.campaign.matrix import apply_config_overrides  # noqa: E402
from repro.simulator.runner import run_experiment  # noqa: E402
from repro.simulator.serialization import result_to_dict  # noqa: E402
from repro.workloads.suite import get_workload  # noqa: E402

from perfbench.inputs import (  # noqa: E402
    DIGESTS_PATH,
    SCALE,
    SUITE,
    SWEEP_CONFIGS,
    SWEEP_VERSIONS,
    pin_label,
    result_digest,
    salted_config,
)


def main() -> int:
    digests = {}
    for overrides in SWEEP_CONFIGS:
        for workload in SUITE:
            for version in SWEEP_VERSIONS:
                seen = {
                    result_digest(
                        result_to_dict(
                            run_experiment(
                                get_workload(workload),
                                apply_config_overrides(
                                    salted_config(0, cycle), overrides
                                ),
                                version,
                            )
                        )
                    )
                    for cycle in (0, 1)
                }
                label = pin_label(overrides["name"], workload, version)
                if len(seen) != 1:
                    print(f"{label}: digest depends on the seed", file=sys.stderr)
                    return 1
                digests[label] = seen.pop()
                print(f"{label} {digests[label][:16]}", file=sys.stderr)
    doc = {"record": "perfbench-digests", "scale": SCALE, "digests": digests}
    DIGESTS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
