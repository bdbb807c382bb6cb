"""Tests for score-manager assignment."""

from __future__ import annotations

from repro.overlay.assignment import ScoreManagerAssignment
from repro.overlay.ring import ChordRing


def make_ring(count: int) -> ChordRing:
    ring = ChordRing()
    for peer_id in range(count):
        ring.join(peer_id)
    return ring


class TestScoreManagerAssignment:
    def test_returns_requested_number_of_managers(self):
        ring = make_ring(20)
        assignment = ScoreManagerAssignment(ring=ring, num_score_managers=6)
        managers = assignment.managers_for(3)
        assert 1 <= len(managers) <= 6
        assert len(set(managers)) == len(managers)

    def test_excludes_subject_by_default(self):
        ring = make_ring(20)
        assignment = ScoreManagerAssignment(ring=ring, num_score_managers=6)
        for subject in range(20):
            assert subject not in assignment.managers_for(subject)

    def test_single_peer_ring_with_exclusion_falls_back_to_self(self):
        ring = make_ring(1)
        assignment = ScoreManagerAssignment(ring=ring, num_score_managers=3)
        assert assignment.managers_for(0) == [0]

    def test_assignment_deterministic(self):
        ring = make_ring(15)
        assignment = ScoreManagerAssignment(ring=ring, num_score_managers=4)
        assert assignment.managers_for(7) == assignment.managers_for(7)

    def test_assignment_changes_when_ring_changes(self):
        ring = make_ring(30)
        assignment = ScoreManagerAssignment(ring=ring, num_score_managers=6)
        before = {subject: assignment.managers_for(subject) for subject in range(30)}
        for new_peer in range(30, 60):
            ring.join(new_peer)
        changed = sum(
            1 for subject in range(30) if assignment.managers_for(subject) != before[subject]
        )
        assert changed > 0

    def test_empty_ring_returns_no_managers(self):
        assignment = ScoreManagerAssignment(ring=ChordRing(), num_score_managers=3)
        assert assignment.managers_for(0) == []
