"""Tests for incremental ring rewiring and targeted assignment invalidation.

The refactor's contract is behavioural transparency: incremental
successor/predecessor updates must leave the ring exactly as a full rewire
would, and targeted cache eviction must leave the reputation store's
assignment cache indistinguishable from a cold recompute — after *any*
sequence of joins and leaves.  The randomized property tests here drive both
through hundreds of membership changes and compare against the reference
implementations (:func:`assert_pointers_match_reference`'s whole-ring
rewire and ``ScoreManagerAssignment.managers_for``) at every step.
"""

from __future__ import annotations

import random

import pytest

from repro.overlay.assignment import ScoreManagerAssignment
from repro.overlay.membership import MembershipChange, MembershipKind
from repro.overlay.ring import ChordRing
from repro.reputation.adapters import LogReputationBackend
from repro.reputation.backend import notify_membership_change
from repro.reputation.beta import BetaReputation
from repro.rocq.store import ReputationStore


def assert_pointers_match_reference(ring: ChordRing) -> None:
    """Every node's successor/predecessor equals the full-rewire result."""
    keys = sorted(ring._nodes_by_key)
    total = len(keys)
    for index, key in enumerate(keys):
        node = ring._nodes_by_key[key]
        assert node.successor == keys[(index + 1) % total]
        assert node.predecessor == keys[(index - 1) % total]


class TestIncrementalRewiring:
    def test_join_reports_the_changed_arc(self):
        ring = ChordRing()
        ring.join(1)
        ring.join(2)
        change = ring.last_change
        assert change is not None
        assert change.kind is MembershipKind.JOIN
        assert change.peer_id == 2
        assert change.node_key == ring.node_for_peer(2).key
        assert change.predecessor_key == ring.node_for_peer(1).key
        assert change.successor_key == ring.node_for_peer(1).key
        assert change.ring_size == 2

    def test_leave_reports_the_released_arc(self):
        ring = ChordRing()
        for peer_id in range(5):
            ring.join(peer_id)
        departing_key = ring.node_for_peer(3).key
        ring.leave(3)
        change = ring.last_change
        assert change is not None
        assert change.kind is MembershipKind.LEAVE
        assert change.peer_id == 3
        assert change.node_key == departing_key
        assert change.ring_size == 4
        # The arc endpoints are live neighbours of the departed position.
        assert change.successor_key in ring._nodes_by_key
        assert change.predecessor_key in ring._nodes_by_key

    def test_idempotent_join_reports_no_change(self):
        ring = ChordRing()
        ring.join(7)
        assert ring.last_change is not None
        ring.join(7)
        assert ring.last_change is None

    def test_last_node_leaving_empties_the_ring(self):
        ring = ChordRing()
        node = ring.join(1)
        key = node.key
        ring.leave(1)
        change = ring.last_change
        assert len(ring) == 0
        assert change is not None and change.ring_size == 0
        assert change.predecessor_key == key and change.successor_key == key

    def test_single_node_arc_covers_the_whole_ring(self):
        ring = ChordRing()
        ring.join(1)
        change = ring.last_change
        assert change is not None
        assert change.arc_contains(0)
        assert change.arc_contains(change.node_key)

    def test_pointers_match_full_rewire_after_random_churn(self):
        rng = random.Random(0xC0FFEE)
        ring = ChordRing()
        live: list[int] = []
        next_id = 0
        for _ in range(400):
            if not live or rng.random() < 0.6:
                ring.join(next_id)
                live.append(next_id)
                next_id += 1
            else:
                victim = live.pop(rng.randrange(len(live)))
                ring.leave(victim)
            assert_pointers_match_reference(ring)


class TestTargetedInvalidation:
    def _build(self, peers: int = 24, managers: int = 6):
        ring = ChordRing()
        for peer_id in range(peers):
            ring.join(peer_id)
        assignment = ScoreManagerAssignment(ring=ring, num_score_managers=managers)
        store = ReputationStore(assignment=assignment)
        return ring, assignment, store

    def test_join_evicts_only_affected_subjects(self):
        ring, assignment, store = self._build()
        for subject in range(24):
            store.managers_for(subject)
        assert len(store._assignment_cache) == 24
        ring.join(1000)
        store.membership_changed(ring.last_change)
        # Some entries survive (targeted, not blanket) ...
        assert store._assignment_cache, "a single join must not clear everything"
        assert store.full_invalidations == 0
        # ... and every entry, cached or recomputed, matches a cold resolve.
        for subject in range(24):
            assert store.managers_for(subject) == assignment.managers_for(subject)

    def test_none_change_degrades_to_full_invalidation(self):
        _, _, store = self._build()
        store.managers_for(3)
        store.membership_changed(None)
        assert store._assignment_cache == {}
        assert store.full_invalidations == 1

    def test_notify_helper_falls_back_without_the_hook(self):
        class OldSchoolBackend:
            def __init__(self):
                self.invalidations = 0

            def invalidate_assignments(self):
                self.invalidations += 1

        backend = OldSchoolBackend()
        change = MembershipChange(
            kind=MembershipKind.JOIN,
            peer_id=1,
            node_key=10,
            predecessor_key=5,
            successor_key=20,
            ring_size=3,
        )
        notify_membership_change(backend, change)
        assert backend.invalidations == 1

    def test_notify_helper_prefers_the_structured_hook(self):
        _, _, store = self._build(peers=8, managers=3)
        store.managers_for(2)
        notify_membership_change(store, None)
        assert store.full_invalidations == 1

    def test_log_backend_accepts_membership_changes(self):
        backend = LogReputationBackend(BetaReputation())
        notify_membership_change(backend, None)  # must simply not raise

    def test_eviction_unindexes_all_dependency_keys(self):
        ring, _, store = self._build(peers=12, managers=3)
        store.managers_for(4)
        keys = store._arc_dependencies[4]
        assert keys
        store._evict_subject(4)
        assert 4 not in store._arc_dependencies
        for key in keys:
            assert 4 not in store._arc_dependents.get(key, set())

    @pytest.mark.parametrize("managers", [1, 3, 6])
    def test_targeted_equals_cold_recompute_over_random_churn(self, managers):
        """The tentpole property: targeted invalidation == full recompute.

        Drives a store through hundreds of random joins/leaves (notifying it
        only with the structured per-change arcs, never blanket-clearing) and
        asserts after every change that *every* cached assignment equals what
        a cold ``ScoreManagerAssignment.managers_for`` resolves — including
        subjects that are not ring members and subjects whose own node moved.
        """
        rng = random.Random(1000 + managers)
        ring = ChordRing()
        assignment = ScoreManagerAssignment(ring=ring, num_score_managers=managers)
        store = ReputationStore(assignment=assignment)
        live: list[int] = []
        next_id = 0
        for step in range(250):
            if not live or rng.random() < 0.55:
                ring.join(next_id)
                live.append(next_id)
                next_id += 1
            else:
                victim = live.pop(rng.randrange(len(live)))
                ring.leave(victim)
            store.membership_changed(ring.last_change)
            # Touch a mix of members and strangers to grow the cache.
            for _ in range(4):
                store.managers_for(rng.randrange(next_id + 5))
            # Every cached entry must match a cold recompute.
            for subject, cached in store._assignment_cache.items():
                assert cached == assignment.managers_for(subject), (
                    f"stale cache for subject {subject} at step {step}"
                )
        assert store.targeted_evictions > 0
        assert store.full_invalidations == 0


class TestChurnManagerUsesTheCache:
    def test_snapshot_and_migration_go_through_store_cache(self):
        from repro.overlay.churn import ChurnManager

        ring = ChordRing()
        for peer_id in range(16):
            ring.join(peer_id)
        assignment = ScoreManagerAssignment(ring=ring, num_score_managers=3)
        store = ReputationStore(assignment=assignment)
        store.set_reputation(5, 0.9, 0.0)
        churn = ChurnManager(ring=ring, assignment=assignment, store=store)
        for joiner in range(100, 130):
            churn.join(joiner, time=1.0)
        for victim in (3, 7, 11):
            churn.leave(victim, time=2.0)
        # No blanket invalidation was ever needed, and the cache stayed
        # coherent through thirty joins and three leaves.
        assert store.full_invalidations == 0
        for subject in ring.peers():
            assert store.managers_for(subject) == assignment.managers_for(subject)
        assert store.global_reputation(5) == pytest.approx(0.9, abs=0.35)

    def test_idempotent_rejoin_does_not_blanket_invalidate(self):
        from repro.overlay.churn import ChurnManager

        ring = ChordRing()
        for peer_id in range(8):
            ring.join(peer_id)
        assignment = ScoreManagerAssignment(ring=ring, num_score_managers=3)
        store = ReputationStore(assignment=assignment)
        churn = ChurnManager(ring=ring, assignment=assignment, store=store)
        for subject in range(8):
            store.managers_for(subject)
        churn.join(3)  # already a member: nothing moved
        assert store.full_invalidations == 0
        assert len(store._assignment_cache) == 8

    def test_managed_by_routes_through_store_cache(self):
        ring = ChordRing()
        for peer_id in range(10):
            ring.join(peer_id)
        assignment = ScoreManagerAssignment(ring=ring, num_score_managers=3)
        store = ReputationStore(assignment=assignment)
        peers = list(range(10))
        for manager in peers:
            via_store = store.managed_by(manager, peers)
            via_assignment = assignment.managed_by(manager, peers)
            assert via_store == via_assignment
        # The store path populated (and reused) the cache.
        assert len(store._assignment_cache) == 10
