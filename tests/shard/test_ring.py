"""Property tests for the consistent-hash ring.

The ring's contract is what makes warm handoff cheap: routing is a
pure function of the key digest and the member set, load spreads
roughly evenly, and membership changes move only the keys they must
(≈1/N on add, exactly the leaver's share on remove).
"""

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.shard.ring import DEFAULT_VNODES, HashRing


def digests(n: int, salt: str = "") -> list[str]:
    return [
        hashlib.sha256(f"{salt}key-{i}".encode()).hexdigest() for i in range(n)
    ]


digest_st = st.integers(min_value=0).map(
    lambda i: hashlib.sha256(f"key-{i}".encode()).hexdigest()
)


class TestBasics:
    def test_empty_ring_refuses_to_route(self):
        with pytest.raises(ValueError):
            HashRing([]).route("ab" * 32)

    def test_duplicate_member_rejected(self):
        with pytest.raises(ValueError):
            HashRing(["a", "a"])
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add("a")

    def test_remove_unknown_member_rejected(self):
        with pytest.raises(ValueError):
            HashRing(["a"]).remove("b")

    def test_remove_last_member_then_route_fails(self):
        ring = HashRing(["only"])
        ring.remove("only")
        with pytest.raises(ValueError):
            ring.route("ab" * 32)

    def test_members_sorted_and_len(self):
        ring = HashRing(["b", "a", "c"])
        assert ring.members == ("a", "b", "c")
        assert len(ring) == 3
        assert "b" in ring and "z" not in ring

    def test_describe(self):
        doc = HashRing(["a", "b"], vnodes=16).describe()
        assert doc["members"] == ["a", "b"]
        assert doc["vnodes"] == 16
        assert doc["points"] == 32


class TestDeterminism:
    def test_routing_is_pure_function_of_digest_and_members(self):
        """Same member set => same routing, however it was built."""
        keys = digests(200)
        built = HashRing(["s0", "s1", "s2"])
        grown = HashRing(["s1"])
        grown.add("s2")
        grown.add("s0")
        assert [built.route(k) for k in keys] == [grown.route(k) for k in keys]

    @settings(deadline=None, max_examples=25)
    @given(digest_st)
    def test_route_is_stable_across_calls(self, key):
        ring = HashRing(["s0", "s1", "s2", "s3", "s4"])
        assert ring.route(key) == ring.route(key)


class TestBalance:
    @pytest.mark.parametrize("members", [3, 5, 8])
    def test_spread_is_roughly_uniform(self, members):
        """With 128 vnodes, no shard holds more than ~2x its fair share."""
        ring = HashRing([f"s{i}" for i in range(members)])
        keys = digests(3000)
        counts = Counter(ring.route(k) for k in keys)
        assert set(counts) == set(ring.members)  # every member owns keys
        fair = len(keys) / members
        for member, owned in counts.items():
            assert owned < 2.0 * fair, (member, owned, fair)
            assert owned > 0.35 * fair, (member, owned, fair)

    def test_more_vnodes_tighten_the_spread(self):
        keys = digests(4000)
        def imbalance(vnodes):
            ring = HashRing(["a", "b", "c"], vnodes=vnodes)
            counts = Counter(ring.route(k) for k in keys)
            return max(counts.values()) / min(counts.values())

        assert imbalance(DEFAULT_VNODES) <= imbalance(4) + 1e-9


class TestMinimalMovement:
    @settings(deadline=None, max_examples=7)
    @given(st.integers(min_value=2, max_value=8))
    def test_adding_a_member_only_moves_keys_to_it(self, members):
        keys = digests(1000)
        ring = HashRing([f"s{i}" for i in range(members)])
        before = {k: ring.route(k) for k in keys}
        ring.add("snew")
        moved = {k for k in keys if ring.route(k) != before[k]}
        # every moved key landed on the new member, nothing reshuffled
        assert all(ring.route(k) == "snew" for k in moved)
        # and the movement is ~1/(N+1): allow generous slack, but it
        # must be far from a full reshuffle
        assert len(moved) <= len(keys) * 3.0 / (members + 1)
        assert moved, "the new member should take some keys"

    @settings(deadline=None, max_examples=7)
    @given(st.integers(min_value=2, max_value=8))
    def test_removing_a_member_only_moves_its_keys(self, members):
        keys = digests(1000)
        ring = HashRing([f"s{i}" for i in range(members)])
        victim = "s0"
        before = {k: ring.route(k) for k in keys}
        ring.remove(victim)
        for k in keys:
            if before[k] == victim:
                assert ring.route(k) != victim
            else:
                assert ring.route(k) == before[k], "survivor keys must not move"

    def test_add_then_remove_is_identity(self):
        keys = digests(500)
        ring = HashRing(["s0", "s1", "s2"])
        before = [ring.route(k) for k in keys]
        ring.add("tmp")
        ring.remove("tmp")
        assert [ring.route(k) for k in keys] == before
