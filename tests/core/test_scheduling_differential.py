"""Differential: vectorized Fig. 15 scheduling vs ``Tag.dot`` scoring.

``schedule_group`` scores all of a client's unscheduled chunks per pick
with one matvec over 0/1 tag rows; the oracle scores them one by one
with ``Tag.dot``.  Schedules must match exactly — including ties, which
both break by lowest pool index — for any weights, α or β = 0 included.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.balancing import TagMatrix
from repro.core.chunking import IterationChunk
from repro.core.scheduling import schedule_group
from repro.util.bitset import Tag

from tests.core import scalar_reference

WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 0.1, 0.3, 0.7]),
    st.floats(0.0, 4.0, allow_nan=False),
)


@st.composite
def groups(draw):
    # A narrow tag width and few sizes make equal scores (ties) common.
    r = draw(st.integers(1, 6))
    n_chunks = draw(st.integers(0, 14))
    pool = []
    rank = 0
    for _ in range(n_chunks):
        chunks = draw(st.sets(st.integers(0, r - 1), max_size=r))
        size = draw(st.sampled_from([1, 2, 4, 4, 7]))
        pool.append(IterationChunk(Tag(chunks, r), np.arange(rank, rank + size)))
        rank += size
    n_clients = draw(st.integers(1, 4))
    owner = [draw(st.integers(0, n_clients - 1)) for _ in range(n_chunks)]
    client_chunks = [[m for m in range(n_chunks) if owner[m] == c] for c in range(n_clients)]
    for c in client_chunks:  # membership order must not matter
        draw(st.randoms(use_true_random=False)).shuffle(c)
    return client_chunks, pool


@settings(max_examples=500, deadline=None)
@given(groups(), WEIGHTS, WEIGHTS, st.booleans())
def test_vectorized_matches_tag_dot(group, alpha, beta, pass_tags):
    client_chunks, pool = group
    expected = scalar_reference.schedule_group(client_chunks, pool, alpha, beta)
    tags = None
    if pass_tags and pool:
        tags = TagMatrix(pool, pool[0].tag.nbits)
    got = schedule_group(client_chunks, pool, alpha, beta, tags)
    assert got == expected


def test_all_ties_go_to_lowest_pool_index():
    # Identical tags everywhere: every score ties, every pick is the
    # lowest remaining pool index.
    pool = [IterationChunk(Tag({0, 1}, 4), np.arange(4 * m, 4 * m + 4)) for m in range(6)]
    client_chunks = [[4, 0, 2], [5, 3, 1]]
    for alpha, beta in [(0.5, 0.5), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0)]:
        expected = scalar_reference.schedule_group(client_chunks, pool, alpha, beta)
        assert schedule_group(client_chunks, pool, alpha, beta) == expected
        assert expected == [[0, 2, 4], [1, 3, 5]]
