"""Consistent-hash ring: placement, stability, determinism."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.ring import HashRing
from tests.conftest import count_calls

KEYS = [b"key-%05d" % i for i in range(400)]

shard_sets = st.sets(st.integers(min_value=0, max_value=31), min_size=2, max_size=8)


class TestLookup:
    def test_lookup_is_deterministic_across_instances(self):
        """Two independently built rings agree on every key — placement
        depends only on (members, vnodes, seed), never process state."""
        a = HashRing([0, 1, 2, 3])
        b = HashRing([3, 2, 1, 0])  # insertion order must not matter
        for key in KEYS:
            assert a.lookup(key) == b.lookup(key)

    def test_lookup_returns_member(self):
        ring = HashRing([4, 7, 9])
        for key in KEYS:
            assert ring.lookup(key) in {4, 7, 9}

    def test_empty_ring_raises(self):
        # with_shard_removed refuses to empty a ring, so build it empty.
        ring = HashRing([])
        with pytest.raises(ValueError):
            ring.lookup(b"k")

    def test_balance_is_reasonable(self):
        """With enough vnodes no shard owns a wildly outsized share."""
        ring = HashRing(range(4), vnodes=64)
        counts = Counter(ring.lookup(b"key-%05d" % i) for i in range(4000))
        assert set(counts) == {0, 1, 2, 3}
        assert max(counts.values()) < 3 * (4000 // 4)

    def test_seed_changes_placement(self):
        a = HashRing([0, 1, 2, 3], seed=0)
        b = HashRing([0, 1, 2, 3], seed=1)
        assert any(a.lookup(k) != b.lookup(k) for k in KEYS)


class TestPreferenceList:
    def test_distinct_and_primary_first(self):
        ring = HashRing(range(5))
        for key in KEYS[:50]:
            prefs = ring.preference_list(key, 3)
            assert len(prefs) == len(set(prefs)) == 3
            assert prefs[0] == ring.lookup(key)

    def test_exclude_promotes_next_shard(self):
        """Excluding the primary yields the old list minus the primary,
        extended by the next live shard — the failover promotion rule."""
        ring = HashRing(range(5))
        for key in KEYS[:50]:
            before = ring.preference_list(key, 3)
            after = ring.preference_list(key, 3, exclude={before[0]})
            assert before[0] not in after
            assert after[:2] == before[1:3]

    def test_want_capped_by_available(self):
        ring = HashRing([0, 1])
        assert len(ring.preference_list(b"k", 5)) == 2
        assert ring.preference_list(b"k", 5, exclude={0, 1}) == []


class TestStability:
    """The consistent-hashing contract, property-tested: membership
    changes only re-map keys whose owner actually changed."""

    @settings(max_examples=30, deadline=None)
    @given(shards=shard_sets, new=st.integers(min_value=32, max_value=40))
    def test_add_only_remaps_to_new_shard(self, shards, new):
        ring = HashRing(shards)
        before = {key: ring.lookup(key) for key in KEYS}
        ring.add_shard(new)
        for key, owner in before.items():
            after = ring.lookup(key)
            # A key either kept its owner or moved to the new member —
            # never from one old shard to another.
            assert after == owner or after == new

    @settings(max_examples=30, deadline=None)
    @given(shards=shard_sets)
    def test_remove_only_remaps_orphans(self, shards):
        victim = min(shards)
        ring = HashRing(shards)
        before = {key: ring.lookup(key) for key in KEYS}
        ring = ring.with_shard_removed(victim)
        for key, owner in before.items():
            if owner != victim:
                assert ring.lookup(key) == owner

    @settings(max_examples=30, deadline=None)
    @given(shards=shard_sets, new=st.integers(min_value=32, max_value=40))
    def test_add_then_remove_roundtrips(self, shards, new):
        ring = HashRing(shards)
        before = {key: ring.lookup(key) for key in KEYS}
        ring.add_shard(new)
        ring = ring.with_shard_removed(new)
        assert {key: ring.lookup(key) for key in KEYS} == before

    @settings(max_examples=30, deadline=None)
    @given(shards=shard_sets)
    def test_exclude_equals_removal(self, shards):
        """Routing around a down shard (exclude) must place keys exactly
        where an actual membership change would."""
        victim = max(shards)
        ring = HashRing(shards)
        shrunk = HashRing(shards - {victim})
        for key in KEYS[:100]:
            assert (
                ring.preference_list(key, 2, exclude={victim})
                == shrunk.preference_list(key, 2)
            )

    def test_membership_errors(self):
        ring = HashRing([0, 1])
        with pytest.raises(ValueError):
            ring.add_shard(0)
        with pytest.raises(ValueError):
            ring.with_shard_removed(5)


def _rebuilt(ring: HashRing) -> HashRing:
    """The same membership built from scratch: nothing memoized."""
    return HashRing(sorted(ring.shards), vnodes=ring.vnodes, seed=ring.seed)


class TestSuccessorMemo:
    """``preference_list`` without ``exclude`` answers from a memo of
    successor walks; it must be indistinguishable from walking."""

    @staticmethod
    def _check(ring: HashRing) -> None:
        fresh = _rebuilt(ring)
        outsider = {-1}  # excludes no member, but forces the walking path
        victim = min(ring.shards)
        for key in KEYS[:40]:
            for n in (1, 2, 3):
                memoized = ring.preference_list(key, n)
                assert memoized == ring.preference_list(key, n, exclude=outsider)
                assert memoized == fresh.preference_list(key, n)
                # Whoever gets the answer owns it.
                memoized.append(99)
                memoized[0] = -7
                assert ring.preference_list(key, n) == fresh.preference_list(key, n)
            if len(ring) > 1:
                assert (
                    ring.preference_list(key, 2, exclude={victim})
                    == fresh.with_shard_removed(victim).preference_list(key, 2)
                )

    @settings(max_examples=40, deadline=None)
    @given(
        shards=st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=4),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["add", "with_added", "with_removed"]),
                st.integers(min_value=0, max_value=9),
            ),
            max_size=8,
        ),
    )
    def test_matches_unmemoized_walk_across_membership_changes(self, shards, ops):
        ring = HashRing(shards, vnodes=8)
        self._check(ring)  # warms the memo the first change must drop
        for op, sid in ops:
            member = sid in ring.shards
            if op in ("add", "with_added") and member:
                continue
            if op == "with_removed" and (not member or len(ring) == 1):
                continue
            if op == "add":
                ring.add_shard(sid)
            else:
                derive = ring.with_shard_added if op == "with_added" else ring.with_shard_removed
                before = ring.shards
                derived = derive(sid)
                assert ring.shards == before
                self._check(ring)  # the source ring still answers for itself
                ring = derived
            self._check(ring)

    def test_memo_is_bounded_by_ring_points(self):
        ring = HashRing(range(4), vnodes=16)
        for i in range(5000):
            ring.preference_list(b"key-%d" % i, 2)
        assert len(ring._successors) <= 4 * 16 + 1


def test_call_budget_warm_preference_list():
    """Hash, bisect, one dict lookup: the per-key walk (and its
    ``min``/``len``/``append`` calls) only runs on a memo miss or with
    ``exclude``."""
    ring = HashRing(range(4))
    ring.preference_list(b"k", 2)
    assert count_calls(ring.preference_list, b"k", 2) <= 9
