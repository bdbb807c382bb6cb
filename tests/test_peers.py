"""Tests for peer behaviours, the Peer entity and the population registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import UnknownPeerError
from repro.peers.behavior import (
    BehaviorKind,
    ColluderBehavior,
    CooperativeBehavior,
    FreeriderBehavior,
    MaliciousProviderBehavior,
    WhitewasherBehavior,
    make_behavior,
)
from repro.peers.peer import Peer, PeerStatus
from repro.peers.population import Population


class TestBehaviors:
    def test_cooperative_is_cooperative(self):
        assert CooperativeBehavior().is_cooperative
        assert CooperativeBehavior().honest_reporting

    @pytest.mark.parametrize(
        "behavior",
        [FreeriderBehavior(), MaliciousProviderBehavior(), WhitewasherBehavior()],
    )
    def test_uncooperative_kinds_are_not_cooperative(self, behavior):
        assert not behavior.is_cooperative

    def test_service_quality_controls_outcomes(self, rng):
        good = CooperativeBehavior(service_quality=1.0)
        bad = FreeriderBehavior(service_quality=0.0)
        assert all(good.provides_good_service(rng) for _ in range(20))
        assert not any(bad.provides_good_service(rng) for _ in range(20))

    def test_statistical_service_quality(self, rng):
        behavior = CooperativeBehavior(service_quality=0.9)
        outcomes = [behavior.provides_good_service(rng) for _ in range(2000)]
        assert 0.85 < np.mean(outcomes) < 0.95

    def test_honest_reporting(self):
        behavior = CooperativeBehavior()
        assert behavior.report_value(7, satisfied=True) == 1.0
        assert behavior.report_value(7, satisfied=False) == 0.0

    def test_uncooperative_always_reports_zero(self):
        behavior = FreeriderBehavior()
        assert behavior.report_value(7, satisfied=True) == 0.0
        assert behavior.report_value(7, satisfied=False) == 0.0

    def test_colluder_inflates_ring_members(self):
        behavior = ColluderBehavior(ring={7, 8})
        assert behavior.report_value(7, satisfied=False) == 1.0
        assert behavior.report_value(9, satisfied=False) == 0.0
        assert behavior.report_value(9, satisfied=True) == 1.0

    def test_malicious_provider_never_serves_well(self, rng):
        behavior = MaliciousProviderBehavior()
        assert not any(behavior.provides_good_service(rng) for _ in range(10))

    def test_factory_builds_each_kind(self):
        for kind in BehaviorKind:
            behavior = make_behavior(kind)
            assert behavior.kind == kind

    def test_factory_accepts_strings_and_quality_overrides(self):
        behavior = make_behavior("cooperative", cooperative_quality=0.7)
        assert behavior.service_quality == pytest.approx(0.7)
        behavior = make_behavior("freerider", uncooperative_quality=0.2)
        assert behavior.service_quality == pytest.approx(0.2)

    def test_factory_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_behavior("saboteur")


class TestPeer:
    def test_new_peer_starts_waiting(self):
        peer = Peer(peer_id=1, behavior=CooperativeBehavior())
        assert peer.status == PeerStatus.WAITING
        assert peer.is_waiting
        assert not peer.is_active

    def test_admit_sets_fields(self):
        peer = Peer(peer_id=1, behavior=CooperativeBehavior())
        peer.admit()
        assert peer.is_active

    def test_reject_and_depart_are_terminal(self):
        rejected = Peer(peer_id=1, behavior=CooperativeBehavior())
        rejected.reject()
        assert rejected.status == PeerStatus.REJECTED
        departed = Peer(peer_id=2, behavior=CooperativeBehavior())
        departed.admit()
        departed.depart()
        assert departed.status == PeerStatus.DEPARTED

    def test_cannot_introduce_without_policy_or_activation(self):
        peer = Peer(peer_id=1, behavior=CooperativeBehavior())
        assert not peer.can_introduce
        peer.admit()
        assert not peer.can_introduce  # still no policy

    def test_opinion_book_belongs_to_peer(self):
        peer = Peer(peer_id=7, behavior=CooperativeBehavior())
        assert peer.opinions.owner == 7


class TestPopulation:
    def test_create_peer_registers_waiting(self):
        population = Population()
        peer = population.create_peer(CooperativeBehavior())
        assert peer.peer_id in population
        assert peer in population.waiting_peers()
        assert population.count_active() == 0

    def test_admit_moves_peer_to_active(self):
        population = Population()
        peer = population.create_peer(CooperativeBehavior())
        population.admit(peer.peer_id)
        assert population.count_active() == 1
        assert peer.peer_id in population.active_ids

    def test_admit_is_idempotent(self):
        population = Population()
        peer = population.create_peer(CooperativeBehavior())
        population.admit(peer.peer_id)
        population.admit(peer.peer_id)
        assert population.active_ids.count(peer.peer_id) == 1

    def test_reject_removes_from_waiting(self):
        population = Population()
        peer = population.create_peer(FreeriderBehavior())
        population.reject(peer.peer_id)
        assert peer.status == PeerStatus.REJECTED
        assert peer not in population.waiting_peers()

    def test_depart_removes_from_active(self, population_with_members):
        victim = population_with_members.active_ids[0]
        population_with_members.depart(victim)
        assert victim not in population_with_members.active_ids
        assert population_with_members.get(victim).status == PeerStatus.DEPARTED

    def test_counts_by_cooperativeness(self, population_with_members):
        assert population_with_members.count_active() == 6
        assert population_with_members.count_active(cooperative=True) == 5
        assert population_with_members.count_active(cooperative=False) == 1
        assert len(population_with_members.active_cooperative()) == 5
        assert len(population_with_members.active_uncooperative()) == 1

    def test_founders_listing(self, population_with_members):
        assert len(population_with_members.founders()) == 5

    def test_unknown_peer_raises(self):
        with pytest.raises(UnknownPeerError):
            Population().get(404)

    def test_iteration_and_len(self, population_with_members):
        assert len(population_with_members) == 6
        assert len(list(population_with_members)) == 6

    def test_active_list_swap_removal_keeps_integrity(self):
        population = Population()
        peers = [population.create_peer(CooperativeBehavior()) for _ in range(10)]
        for peer in peers:
            population.admit(peer.peer_id)
        # Remove every other peer and check the index stays consistent.
        for peer in peers[::2]:
            population.depart(peer.peer_id)
        remaining = {p.peer_id for p in peers[1::2]}
        assert set(population.active_ids) == remaining
        for peer_id in remaining:
            assert population.get(peer_id).is_active
