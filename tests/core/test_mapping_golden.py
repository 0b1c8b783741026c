"""Mapping golden: every mapper's output is pinned bit for bit.

The digests in ``tests/core/golden/mappings.json`` were generated from
the scalar mapper implementation; the array-native front end
(vectorized dependence test, rank-space Intra search, sort-based chunk
grouping, vectorized scheduling) must reproduce every one of them —
iteration assignment, execution order and tie-breaks included.  The
full-scale ``inter`` cells cover Stage 1 at its largest chunk counts.
"""

import pytest

from tests.core.golden import (
    compute_digest,
    golden_cells,
    golden_key,
    load_mappings,
)

PINNED = load_mappings()["mappings"]


def test_golden_covers_every_cell():
    expected = {golden_key(s, w, v) for s, w, v in golden_cells()}
    assert set(PINNED) == expected
    assert len(expected) == 2 * 8 * 3 + 8


@pytest.mark.parametrize(("scale", "workload", "version"), golden_cells())
def test_mapping_matches_golden(scale, workload, version):
    key = golden_key(scale, workload, version)
    assert compute_digest(scale, workload, version) == PINNED[key], key
