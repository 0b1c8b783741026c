"""Mapping golden: every mapper's output is pinned bit for bit.

The digests in ``tests/core/golden/mappings.json`` were generated from
the scalar mapper implementation; the array-native front end
(vectorized dependence test, rank-space Intra search, sort-based chunk
grouping, vectorized scheduling) must reproduce every one of them —
iteration assignment, execution order and tie-breaks included.
"""

import pytest

from repro.workloads.suite import workload_names

from tests.core.golden import (
    SCALES,
    VERSIONS,
    compute_digest,
    golden_key,
    load_mappings,
)

PINNED = load_mappings()["mappings"]


def test_golden_covers_every_cell():
    expected = {
        golden_key(s, w, v)
        for s in SCALES
        for w in workload_names()
        for v in VERSIONS
    }
    assert set(PINNED) == expected
    assert len(expected) == 2 * 8 * 3


@pytest.mark.parametrize("version", VERSIONS)
@pytest.mark.parametrize("workload", workload_names())
@pytest.mark.parametrize("scale", SCALES)
def test_mapping_matches_golden(scale, workload, version):
    key = golden_key(scale, workload, version)
    assert compute_digest(scale, workload, version) == PINNED[key], key
