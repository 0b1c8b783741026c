"""Property-based invariants for every ReplacementPolicy implementation.

One hypothesis-driven operation machine exercises insert/touch/evict/
remove/clear against a shadow resident set; policy-family-specific
properties (recency policies never evict the just-touched chunk, ARC
adapts, …) layer on top.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hierarchy.policies import make_policy, policy_names

CAPACITY = 8

ALL_POLICIES = policy_names()

#: Policies where a just-touched chunk strictly survives the next
#: eviction.  FIFO is exempt by design (touch is a no-op).
STRICT_RECENCY_POLICIES = ("lru", "rrip", "arc")


def fresh(name: str):
    return make_policy(name, CAPACITY)


# Operation stream: (op, chunk) pairs interpreted against a shadow model.
ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "touch", "evict", "remove"]),
        st.integers(min_value=0, max_value=19),
    ),
    max_size=60,
)


class TestOperationMachine:
    @pytest.mark.parametrize("policy_name", ALL_POLICIES)
    @given(sequence=ops)
    @settings(max_examples=60, deadline=None)
    def test_resident_set_matches_shadow_model(self, policy_name, sequence):
        """After any op sequence the policy's resident set, length and
        membership agree with a straightforward set model; evict always
        returns a resident chunk; capacity is maintained by the caller
        (as ChunkCache does: evict before insert at capacity)."""
        policy = fresh(policy_name)
        shadow = set()
        for op, chunk in sequence:
            if op == "insert":
                if chunk in shadow:
                    with pytest.raises(ValueError):
                        policy.insert(chunk)
                    continue
                if len(shadow) >= CAPACITY:
                    victim = policy.evict()
                    assert victim in shadow
                    shadow.discard(victim)
                policy.insert(chunk)
                shadow.add(chunk)
            elif op == "touch":
                if chunk in shadow:
                    policy.touch(chunk)
                else:
                    with pytest.raises(KeyError):
                        policy.touch(chunk)
            elif op == "evict":
                if shadow:
                    victim = policy.evict()
                    assert victim in shadow
                    shadow.discard(victim)
                else:
                    with pytest.raises(RuntimeError):
                        policy.evict()
            else:  # remove
                if chunk in shadow:
                    policy.remove(chunk)
                    shadow.discard(chunk)
                else:
                    with pytest.raises(KeyError):
                        policy.remove(chunk)
            assert len(policy) == len(shadow)
            assert set(policy.resident()) == shadow
            assert all(c in policy for c in shadow)
            assert len(policy.resident()) == len(shadow), "duplicate residents"

    @pytest.mark.parametrize("policy_name", ALL_POLICIES)
    @given(sequence=ops)
    @settings(max_examples=30, deadline=None)
    def test_clear_resets(self, policy_name, sequence):
        policy = fresh(policy_name)
        shadow = set()
        for _, chunk in sequence:
            if chunk not in shadow:
                if len(shadow) >= CAPACITY:
                    shadow.discard(policy.evict())
                policy.insert(chunk)
                shadow.add(chunk)
        policy.clear()
        assert len(policy) == 0
        assert policy.resident() == []
        # The policy must be fully reusable after clear.
        policy.insert(1)
        assert policy.evict() == 1


class TestRecencyInvariant:
    @pytest.mark.parametrize("recency_policy_name", STRICT_RECENCY_POLICIES)
    @given(
        churn=st.lists(st.integers(min_value=0, max_value=39), max_size=40),
        touched=st.integers(min_value=100, max_value=103),
    )
    @settings(max_examples=60, deadline=None)
    def test_just_touched_survives_next_eviction(
        self, recency_policy_name, churn, touched
    ):
        """Under capacity churn, the most recently touched chunk is
        never the next eviction victim (the engine touches on hit, then
        may evict to fill — evicting the touched chunk would thrash)."""
        policy = fresh(recency_policy_name)
        resident = set()

        def admit(chunk):
            if chunk in resident:
                policy.touch(chunk)
                return
            if len(resident) >= CAPACITY:
                resident.discard(policy.evict())
            policy.insert(chunk)
            resident.add(chunk)

        admit(touched)
        for chunk in churn:
            admit(chunk)
        admit(touched)  # churn may have evicted it; re-admit before touching
        policy.touch(touched)
        if len(resident) > 1:
            victim = policy.evict()
            assert victim != touched
            resident.discard(victim)
        assert touched in policy

    @pytest.mark.parametrize("insertion_policy_name", ["lru", "fifo"])
    @given(churn=st.lists(st.integers(min_value=0, max_value=39), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_just_inserted_survives_next_eviction(
        self, insertion_policy_name, churn
    ):
        """LRU/FIFO treat insertion as most-recent: a chunk inserted
        immediately before an eviction is never the victim.  (SRRIP
        and ARC deliberately do NOT honour this — fresh inserts
        carry a long re-reference prediction / land in T1, which is
        what makes them scan-resistant.)"""
        policy = fresh(insertion_policy_name)
        resident = set()
        for chunk in churn:
            if chunk in resident:
                policy.touch(chunk)
                continue
            if len(resident) >= CAPACITY:
                resident.discard(policy.evict())
            policy.insert(chunk)
            resident.add(chunk)
        fresh_chunk = 100
        if len(resident) >= CAPACITY:
            resident.discard(policy.evict())
        policy.insert(fresh_chunk)
        resident.add(fresh_chunk)
        if len(resident) > 1:
            assert policy.evict() != fresh_chunk


class TestCapacityPlumbing:
    def test_arc_requires_capacity(self):
        with pytest.raises(ValueError):
            make_policy("arc")
        with pytest.raises(ValueError):
            make_policy("arc", 0)

    def test_capacity_ignored_by_capacity_free_policies(self):
        for name in ALL_POLICIES:
            if name == "arc":
                continue
            p = make_policy(name, 64)
            p.insert(1)
            assert 1 in p

    def test_policy_names_covers_registry(self):
        assert set(ALL_POLICIES) >= {
            "lru",
            "fifo",
            "rrip",
            "arc",
        }
        for name in ALL_POLICIES:
            assert make_policy(name, CAPACITY).name == name


class TestARCAdaptation:
    def test_ghost_hit_promotes_to_frequency_list(self):
        policy = make_policy("arc", 4)
        for c in range(4):
            policy.insert(c)
        victim = policy.evict()  # lands in the B1 ghost list
        policy.insert(10)
        policy.remove(10)
        policy.insert(victim)  # B1 ghost hit: straight to T2
        policy.insert(90)
        policy.insert(91)
        # T1 now holds recent once-seen chunks; the ghost-hit chunk sits
        # in T2 and survives single-use churn.
        for c in (92, 93, 94):
            if len(policy) >= 4:
                policy.evict()
            policy.insert(c)
        assert victim in policy

    def test_rrip_scan_resistance(self):
        """A one-pass scan of cache size must not flush a re-referenced
        working set (scan chunks age to RRPV-max before hot ones)."""
        policy = make_policy("rrip", CAPACITY)
        hot = list(range(4))
        for c in hot:
            policy.insert(c)
        for c in hot:
            policy.touch(c)  # RRPV 0: near-immediate re-reference
        for scan in range(100, 100 + CAPACITY):
            if len(policy) >= CAPACITY:
                policy.evict()
            policy.insert(scan)
        survivors = sum(1 for c in hot if c in policy)
        assert survivors == len(hot), "scan displaced the hot set"
