"""Differential: int64-key chunk grouping vs ``np.unique(axis=0)``.

Iteration-chunk formation groups rows by one exact int64 key per row
(a stable sort plus a boundary diff); the oracle groups them with
``np.unique(axis=0)``.  Both must yield the same groups — same rows,
same ascending members — in the same first-appearance order.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.chunking import _group_rows, chunk_matrix_for, form_iteration_chunks
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.arrays import DataSpace, DiskArray
from repro.polyhedral.iterspace import IterationSpace
from repro.polyhedral.nest import LoopNest
from repro.polyhedral.references import ArrayRef

from tests.core.scalar_reference import chunk_matrix, group_rows


def assert_same_groups(got, expected):
    rows, groups = got
    exp_rows, exp_groups = expected
    assert np.array_equal(rows, exp_rows)
    assert len(groups) == len(exp_groups)
    for g, e in zip(groups, exp_groups):
        assert g.dtype == np.int64
        assert np.array_equal(g, e)


@settings(max_examples=400, deadline=None)
@given(
    hnp.arrays(
        np.int64,
        st.tuples(st.integers(1, 60), st.integers(1, 5)),
        # A small alphabet (with the -1 pad) forces many duplicate rows.
        elements=st.integers(-1, 3),
    )
)
def test_lexsort_grouping_matches_unique(canon):
    assert_same_groups(_group_rows(canon), group_rows(canon))


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(
        np.int64,
        st.tuples(st.integers(1, 40), st.integers(1, 4)),
        elements=st.integers(-(2**62), 2**62),
    )
)
# One column spanning exactly 2**63 values: its radix is one past int64.
@example(np.array([[2**62 - 1], [-(2**62)]], dtype=np.int64))
def test_grouping_wide_values(canon):
    assert_same_groups(_group_rows(canon), group_rows(canon))


@st.composite
def nests(draw):
    depth = draw(st.integers(1, 3))
    extents = [draw(st.integers(1, 6)) for _ in range(depth)]
    size = draw(st.integers(4, 30))
    refs = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=depth, max_size=depth))
        refs.append(ArrayRef("A", [AffineExpr(coeffs, draw(st.integers(-5, 5)), size)]))
    ds = DataSpace([DiskArray("A", (size,))], draw(st.integers(1, 5)))
    return LoopNest("t", IterationSpace.from_extents(extents), refs), ds


def _reference_chunks(nest, ds):
    """``(chunk ids, ranks)`` per chunk from the oracle grouping."""
    rows = np.sort(chunk_matrix(nest, ds), axis=1)
    dup = np.zeros_like(rows, dtype=bool)
    dup[:, 1:] = rows[:, 1:] == rows[:, :-1]
    canon = np.sort(np.where(dup, -1, rows), axis=1)
    distinct, groups = group_rows(canon)
    return [(sorted(set(r.tolist()) - {-1}), g.tolist()) for r, g in zip(distinct, groups)]


@settings(max_examples=150, deadline=None)
@given(nests())
def test_form_iteration_chunks_matches_oracle(case):
    nest, ds = case
    chunk_set = form_iteration_chunks(nest, ds)
    got = [(sorted(c.tag.chunks), c.iterations.tolist()) for c in chunk_set]
    assert got == _reference_chunks(nest, ds)
    chunk_set.validate_partition()


def test_formation_rekeys_rows_too_wide_for_one_int64():
    """R = 8 references over r = 300 chunks: 300⁸ > 2⁶³, so the key re-ranks."""
    size = 1200
    coeffs = [1, 7, 13, 29, -3, 101, 37, 211]
    refs = [
        ArrayRef("A", [AffineExpr([c], 5 * k, size)]) for k, c in enumerate(coeffs)
    ]
    nest = LoopNest("wide", IterationSpace.from_extents([size]), refs)
    ds = DataSpace([DiskArray("A", (size,))], 4)
    assert ds.num_chunks == 300
    spans = [int(c.max()) - int(c.min()) + 1 for c in chunk_matrix_for(nest, ds).T]
    assert math.prod(spans) > 2**63
    chunk_set = form_iteration_chunks(nest, ds)
    got = [(list(c.chunk_ids), c.iterations.tolist()) for c in chunk_set]
    assert got == _reference_chunks(nest, ds)
    chunk_set.validate_partition()
