"""Regenerate the pinned mapping digests.

Usage::

    PYTHONPATH=src python tests/core/golden/regenerate.py

Maps every suite workload at every golden scale with each mapper
version, plus the full-scale ``inter`` cells, and writes the digests to
``tests/core/golden/mappings.json``.
Run this only after an intentional mapping-semantics change, and say so
in the commit: a digest change here is a behaviour change.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[3]))

from tests.core.golden import (  # noqa: E402
    MAPPINGS_PATH,
    compute_digest,
    golden_cells,
    golden_key,
)


def main() -> int:
    digests = {}
    for scale, workload, version in golden_cells():
        key = golden_key(scale, workload, version)
        digests[key] = compute_digest(scale, workload, version)
        print(f"{key}: {digests[key][:12]}")
    record = {"record": "repro-mapping-golden", "mappings": digests}
    with open(MAPPINGS_PATH, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {MAPPINGS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
