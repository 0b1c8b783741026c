"""Tests for tag bit-vectors."""

import pytest
from hypothesis import given, strategies as st

from repro.util.bitset import Tag


def tags(nbits=st.integers(4, 64)):
    return nbits.flatmap(
        lambda r: st.builds(
            Tag,
            st.sets(st.integers(0, r - 1), max_size=r),
            st.just(r),
        )
    )


def tag_pairs():
    return st.integers(4, 64).flatmap(
        lambda r: st.tuples(
            st.builds(Tag, st.sets(st.integers(0, r - 1)), st.just(r)),
            st.builds(Tag, st.sets(st.integers(0, r - 1)), st.just(r)),
        )
    )


class TestTagConstruction:
    def test_basic(self):
        t = Tag([0, 2, 4], 12)
        assert t.nbits == 12
        assert t.chunks == frozenset({0, 2, 4})

    def test_empty_tag_allowed(self):
        t = Tag([], 8)
        assert len(t.chunks) == 0

    def test_rejects_out_of_range_chunk(self):
        with pytest.raises(ValueError):
            Tag([8], 8)

    def test_rejects_negative_chunk(self):
        with pytest.raises(ValueError):
            Tag([-1], 8)

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            Tag([0], 0)

    def test_immutable(self):
        t = Tag([1], 4)
        with pytest.raises(AttributeError):
            t.nbits = 5

    def test_from_bitstring_paper_notation(self):
        # Fig. 8: gamma1 = 101010000000 means chunks {0, 2, 4} of 12.
        t = Tag.from_bitstring("101010000000")
        assert t.chunks == frozenset({0, 2, 4})
        assert t.nbits == 12

    def test_bitstring_roundtrip(self):
        s = "100101010000"
        assert Tag.from_bitstring(s).to_bitstring() == s

    def test_from_bitstring_rejects_junk(self):
        with pytest.raises(ValueError):
            Tag.from_bitstring("10a1")
        with pytest.raises(ValueError):
            Tag.from_bitstring("")



class TestTagAlgebra:
    def test_dot_counts_common_bits(self):
        a = Tag.from_bitstring("101010000000")
        b = Tag.from_bitstring("101010100000")
        assert a.dot(b) == 3  # Fig. 8 edge weight gamma1-gamma3

    def test_dot_weight_two_edge(self):
        a = Tag.from_bitstring("101010000000")  # gamma1
        b = Tag.from_bitstring("100010101000")  # gamma5
        assert a.dot(b) == 2

    def test_dot_disjoint_is_zero(self):
        assert Tag([0, 1], 8).dot(Tag([2, 3], 8)) == 0

    def test_dot_width_mismatch(self):
        with pytest.raises(ValueError):
            Tag([0], 4).dot(Tag([0], 5))

    def test_vector_matches_bitstring(self):
        t = Tag.from_bitstring("0110")
        assert t.to_vector().tolist() == [0, 1, 1, 0]

    def test_equality_and_hash(self):
        assert Tag([1, 2], 8) == Tag([2, 1], 8)
        assert hash(Tag([1, 2], 8)) == hash(Tag([2, 1], 8))
        assert Tag([1], 8) != Tag([1], 9)

    def test_iteration_sorted(self):
        assert list(Tag([5, 1, 3], 8)) == [1, 3, 5]

    def test_contains(self):
        t = Tag([2], 4)
        assert 2 in t and 1 not in t

    @given(tag_pairs())
    def test_dot_symmetric(self, pair):
        a, b = pair
        assert a.dot(b) == b.dot(a)

    @given(tag_pairs())
    def test_dot_equals_intersection_size(self, pair):
        a, b = pair
        assert a.dot(b) == len(a.chunks & b.chunks)

    @given(tags())
    def test_self_dot_is_popcount(self, t):
        assert t.dot(t) == len(t.chunks)
