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
from repro.overlay.membership import MembershipKind
from repro.overlay.ring import ChordRing
from repro.reputation.adapters import LogReputationBackend
from repro.reputation.beta import BetaReputation
from repro.rocq.protocol import AdjustmentKind, FeedbackReport, ReputationAdjustment
from repro.rocq.store import ReputationStore


def assert_pointers_match_reference(ring: ChordRing) -> None:
    """Every node's successor/predecessor equals the full-rewire result."""
    keys = sorted(ring._nodes_by_key)
    total = len(keys)
    for index, key in enumerate(keys):
        node = ring._nodes_by_key[key]
        assert node.successor == keys[(index + 1) % total]
        assert node.predecessor == keys[(index - 1) % total]


def assert_index_matches_ring(store: ReputationStore, ring: ChordRing) -> None:
    """The store's ownership index files every tracked replica correctly.

    Each replica of a tracked subject sits in exactly one ``_owned`` bucket,
    the one of the node responsible for its replica key on the ring, and
    ``_firsts`` records that same node; no bucket is left empty, and only
    tracked subjects carry a memoised reputation.  A bucket entry packs
    ``subject << bits | replica_index``, with ``bits`` the width of the
    largest replica index.
    """
    replica_keys_for = store.assignment.replica_keys_for
    bits = (store.assignment.num_score_managers - 1).bit_length()
    filed: set[tuple[int, int]] = set()
    for owner_key, entries in store._owned.items():
        assert entries, f"empty bucket left at {owner_key}"
        for entry in entries:
            subject, index = entry >> bits, entry & ((1 << bits) - 1)
            assert index < store.assignment.num_score_managers
            key = replica_keys_for(subject)[index]
            assert ring.successor_of(key).key == owner_key
            assert store._firsts[subject][index] == owner_key
            assert (subject, index) not in filed, "replica filed twice"
            filed.add((subject, index))
    assert filed == {
        (subject, index)
        for subject, firsts in store._firsts.items()
        for index in range(len(firsts))
    }
    assert store._firsts.keys() == store._assignment_cache.keys()
    assert store._reputation_cache.keys() <= store._assignment_cache.keys()


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
        # The node is its own predecessor and successor: its arc
        # (predecessor, node] is the whole identifier circle.
        assert change.predecessor_key == change.node_key == change.successor_key

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

    def test_log_backend_accepts_membership_changes(self):
        backend = LogReputationBackend(BetaReputation())
        backend.membership_changed(None)  # must simply not raise

    def test_ownership_index_matches_the_ring(self):
        rng = random.Random(7)
        ring, _, store = self._build(peers=12, managers=3)
        live = list(range(12))
        next_id = 12
        for subject in range(40):
            store.managers_for(subject)
        for _ in range(120):
            if rng.random() < 0.5:
                ring.join(next_id)
                live.append(next_id)
                next_id += 1
            else:
                ring.leave(live.pop(rng.randrange(len(live))))
            store.membership_changed(ring.last_change)
        assert len(store._firsts) == 40
        assert_index_matches_ring(store, ring)

    @pytest.mark.parametrize("managers", [2, 8, 9, 33])
    def test_packed_entries_hold_the_largest_ids(self, managers):
        """Entries of ids up to ``2**32 - 1`` survive churn for any replica
        count, including counts one past a power of two, where the index
        field widens."""
        rng = random.Random(managers)
        ring, _, store = self._build(peers=12, managers=managers)
        live = list(range(12))
        next_id = 12
        subjects = [0, 1, 2**31, 2**32 - 2, 2**32 - 1]
        for subject in subjects:
            store.managers_for(subject)
        for _ in range(60):
            if len(live) < 4 or rng.random() < 0.5:
                ring.join(next_id)
                live.append(next_id)
                next_id += 1
            else:
                ring.leave(live.pop(rng.randrange(len(live))))
            store.membership_changed(ring.last_change)
            assert_index_matches_ring(store, ring)
        assert sorted(store._firsts) == subjects

    def test_subjects_stay_tracked_while_the_ring_is_empty(self):
        ring, _, store = self._build(peers=2, managers=3)
        store.set_reputation(5, 0.75)
        assert store.global_reputation(5) == 0.75
        for peer_id in range(2):
            ring.leave(peer_id)
            store.membership_changed(ring.last_change)
        assert store.managers_for(5) == [] and store._owned == {}
        assert store.global_reputation(5) == store.newcomer_reputation()
        ring.join(9)
        store.membership_changed(ring.last_change)
        assert store.managers_for(5) == [9]
        assert store.global_reputation(5) == store.newcomer_reputation()
        assert store.full_invalidations == 0
        assert_index_matches_ring(store, ring)

    @pytest.mark.parametrize("max_nodes", [None, 4], ids=["uncapped", "cap4"])
    @pytest.mark.parametrize("managers", [1, 3, 6])
    def test_targeted_equals_cold_recompute_over_random_churn(
        self, managers, max_nodes
    ):
        """The tentpole property: targeted invalidation == full recompute.

        Drives a store through hundreds of random joins/leaves (notifying it
        only with the structured per-change arcs, never blanket-clearing),
        with reports and adjustments about random subjects in between, and
        asserts after every change that the ownership index agrees with the
        ring, that *every* cached assignment equals what a cold
        ``ScoreManagerAssignment.managers_for`` resolves — including
        subjects that are not ring members and subjects whose own node moved
        — and that every memoised combined reputation equals the mean of the
        replica records at those managers, recomputed independently.  Capping
        the ring at four live nodes keeps it on the small-ring path (fewer
        than three nodes after a change) again and again.
        """
        rng = random.Random(1000 + managers)
        ring = ChordRing()
        assignment = ScoreManagerAssignment(ring=ring, num_score_managers=managers)
        store = ReputationStore(assignment=assignment)
        live: list[int] = []
        next_id = 0
        for step in range(250):
            full = max_nodes is not None and len(live) >= max_nodes
            if not live or (not full and rng.random() < 0.55):
                ring.join(next_id)
                live.append(next_id)
                next_id += 1
            else:
                victim = live.pop(rng.randrange(len(live)))
                ring.leave(victim)
            store.membership_changed(ring.last_change)
            # Touch a mix of members and strangers to grow the cache, and
            # move the reputation of a few of them.
            for _ in range(4):
                store.managers_for(rng.randrange(next_id + 5))
            for _ in range(2):
                store.submit_report_batch(
                    [
                        FeedbackReport(
                            reporter=rng.randrange(next_id + 5),
                            subject=rng.randrange(next_id + 5),
                            value=rng.random(),
                            quality=rng.random(),
                            time=float(step),
                        )
                    ]
                )
            store.apply_adjustment(
                ReputationAdjustment(
                    kind=AdjustmentKind.LEND_CREDIT,
                    issuer=0,
                    subject=rng.randrange(next_id + 5),
                    delta=rng.uniform(-0.2, 0.2),
                    time=float(step),
                )
            )
            assert_index_matches_ring(store, ring)
            # Every cached entry must match a cold recompute.
            for subject, cached in store._assignment_cache.items():
                assert cached == assignment.managers_for(subject), (
                    f"stale cache for subject {subject} at step {step}"
                )
            # Every memoised reputation must match a cold recompute.
            records = {
                int(manager): {int(subject): record["value"]
                               for subject, record in state["records"].items()}
                for manager, state in store.export_state()["managers"].items()
            }
            for subject in list(store._reputation_cache):
                values = [
                    records[manager][subject]
                    for manager in assignment.managers_for(subject)
                    if subject in records.get(manager, {})
                ]
                # Added left to right, as the store does: sum() rounds floats
                # differently from Python 3.12 on.
                total = 0.0
                for value in values:
                    total += value
                expected = (
                    total / len(values) if values else store.newcomer_reputation()
                )
                assert store.global_reputation(subject) == expected, (
                    f"stale reputation memo for subject {subject} at step {step}"
                )
        assert store.targeted_evictions > 0
        assert store.targeted_patches > 0
        assert store.full_invalidations == 0
