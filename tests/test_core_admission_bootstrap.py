"""Tests for the admission controller under every bootstrap mode."""

from __future__ import annotations

import pytest

from repro.config import BootstrapMode, SimulationParameters
from repro.core.admission import AdmissionController
from repro.core.introduction import RefusalReason
from repro.core.lending import LendingManager
from repro.core.policies import NaivePolicy, SelectivePolicy
from repro.overlay.assignment import ScoreManagerAssignment
from repro.overlay.ring import ChordRing
from repro.peers.behavior import CooperativeBehavior, FreeriderBehavior
from repro.peers.peer import Peer
from repro.rng import Stream
from repro.rocq.store import ReputationStore
from repro.topology.random_topology import RandomTopology


def build_controller(params: SimulationParameters):
    """Wire a minimal admission stack with three active members (ids 0-2)."""
    ring = ChordRing()
    topology = RandomTopology()
    members = []
    for peer_id in range(3):
        ring.join(peer_id)
        topology.add_member(peer_id)
        peer = Peer(peer_id=peer_id, behavior=CooperativeBehavior(),
                    introducer_policy=NaivePolicy())
        peer.admit()
        members.append(peer)
    assignment = ScoreManagerAssignment(ring=ring, num_score_managers=3)
    store = ReputationStore(assignment=assignment)
    for peer_id in range(3):
        store.set_reputation(peer_id, 1.0)
    lending = LendingManager(store=store, params=params)
    controller = AdmissionController(
        params=params,
        topology=topology,
        store=store,
        lending=lending,
        rng=Stream(7),
    )
    return controller, store, lending, members


def make_applicant(peer_id: int = 100, cooperative: bool = True) -> Peer:
    behavior = CooperativeBehavior() if cooperative else FreeriderBehavior()
    return Peer(peer_id=peer_id, behavior=behavior)


class TestInitialStanding:
    """``grant_initial_standing`` installs each bootstrap mode's standing."""

    @pytest.mark.parametrize(
        "mode, reputation, adjusted",
        [
            pytest.param(BootstrapMode.LENDING, 0.0, False, id="lending"),
            pytest.param(BootstrapMode.OPEN, 0.45, False, id="open"),
            pytest.param(BootstrapMode.FIXED_CREDIT, 0.25, True, id="fixed_credit"),
            pytest.param(BootstrapMode.CLOSED, 0.0, False, id="closed"),
        ],
    )
    def test_grant_initial_standing(self, store_with_ring, mode, reputation, adjusted):
        params = SimulationParameters(
            bootstrap_mode=mode,
            open_initial_reputation=0.45,
            fixed_initial_credit=0.25,
        )
        controller = AdmissionController(
            params=params,
            topology=RandomTopology(),
            store=store_with_ring,
            lending=LendingManager(store=store_with_ring, params=params),
            rng=Stream(7),
        )
        controller.grant_initial_standing(4, time=1.0)
        assert store_with_ring.global_reputation(4) == pytest.approx(reputation)
        # Only the fixed credit travels as an adjustment message.
        assert (store_with_ring.adjustments_delivered > 0) is adjusted


class TestAdmissionLendingMode:
    def _params(self, **overrides):
        defaults = dict(waiting_period=50.0, intro_amount=0.1, seed=3)
        defaults.update(overrides)
        return SimulationParameters(**defaults)

    def test_accepted_flow_admits_and_lends(self):
        params = self._params()
        controller, store, lending, members = build_controller(params)
        applicant = make_applicant(cooperative=True)
        request = controller.request_admission(applicant, members[0], time=10.0)
        assert request.accepted
        assert request.respond_at == pytest.approx(60.0)
        result = controller.resolve(request, time=60.0)
        assert result.admitted
        assert result.introducer == members[0].peer_id
        assert result.contract is not None
        assert store.global_reputation(applicant.peer_id) == pytest.approx(0.1)
        assert store.global_reputation(members[0].peer_id) == pytest.approx(0.9)

    def test_no_introducer_refusal(self):
        params = self._params()
        controller, _, _, _ = build_controller(params)
        applicant = make_applicant()
        request = controller.request_admission(applicant, None, time=0.0)
        assert not request.accepted
        result = controller.resolve(request, time=params.waiting_period)
        assert not result.admitted
        assert result.refusal_reason == RefusalReason.NO_INTRODUCER

    def test_insufficient_reputation_refusal(self):
        params = self._params()
        controller, store, _, members = build_controller(params)
        store.set_reputation(members[1].peer_id, 0.05)
        applicant = make_applicant()
        request = controller.request_admission(applicant, members[1], time=0.0)
        assert not request.accepted
        assert request.decision.reason == RefusalReason.INSUFFICIENT_REPUTATION

    def test_selective_refusal_of_freerider(self):
        params = self._params(selective_error_rate=0.0)
        controller, _, _, members = build_controller(params)
        members[2].introducer_policy = SelectivePolicy(error_rate=0.0)
        applicant = make_applicant(cooperative=False)
        request = controller.request_admission(applicant, members[2], time=0.0)
        assert not request.accepted
        assert request.decision.reason == RefusalReason.SELECTIVE_REFUSAL

    def test_reputation_rechecked_at_response_time(self):
        params = self._params()
        controller, store, _, members = build_controller(params)
        applicant = make_applicant()
        request = controller.request_admission(applicant, members[0], time=0.0)
        assert request.accepted
        # The introducer loses its reputation while the applicant waits.
        store.set_reputation(members[0].peer_id, 0.01)
        result = controller.resolve(request, time=params.waiting_period)
        assert not result.admitted
        assert result.refusal_reason == RefusalReason.INSUFFICIENT_REPUTATION

    def test_duplicate_introduction_sanctioned(self):
        params = self._params(waiting_period=10.0)
        controller, store, lending, members = build_controller(params)
        applicant = make_applicant()
        first = controller.request_admission(applicant, members[0], time=0.0)
        controller.resolve(first, time=10.0)
        second = controller.request_admission(applicant, members[1], time=20.0)
        result = controller.resolve(second, time=30.0)
        assert not result.admitted
        assert result.refusal_reason == RefusalReason.DUPLICATE_REQUEST
        assert lending.stats.sanctions_applied == 1
        assert store.global_reputation(applicant.peer_id) == pytest.approx(0.0)

    def test_introducer_without_policy_refuses(self):
        params = self._params()
        controller, _, _, members = build_controller(params)
        members[0].introducer_policy = None
        applicant = make_applicant()
        request = controller.request_admission(applicant, members[0], time=0.0)
        assert not request.accepted
        assert request.decision.reason == RefusalReason.SELECTIVE_REFUSAL


class TestAdmissionBaselineModes:
    def test_open_mode_admits_immediately(self):
        params = SimulationParameters(bootstrap_mode=BootstrapMode.OPEN)
        controller, store, _, _ = build_controller(params)
        applicant = make_applicant()
        request = controller.request_admission(applicant, None, time=5.0)
        assert request.respond_at == pytest.approx(5.0)
        result = controller.resolve(request, time=5.0)
        assert result.admitted
        controller.grant_initial_standing(applicant.peer_id, time=5.0)
        assert store.global_reputation(applicant.peer_id) == pytest.approx(
            params.open_initial_reputation
        )

    def test_fixed_credit_mode_grants_credit(self):
        params = SimulationParameters(
            bootstrap_mode=BootstrapMode.FIXED_CREDIT, fixed_initial_credit=0.25
        )
        controller, store, _, _ = build_controller(params)
        applicant = make_applicant()
        request = controller.request_admission(applicant, None, time=0.0)
        result = controller.resolve(request, time=0.0)
        assert result.admitted
        controller.grant_initial_standing(applicant.peer_id, time=0.0)
        assert store.global_reputation(applicant.peer_id) == pytest.approx(0.25)

    def test_closed_mode_rejects_everyone(self):
        params = SimulationParameters(bootstrap_mode=BootstrapMode.CLOSED)
        controller, _, _, members = build_controller(params)
        applicant = make_applicant()
        request = controller.request_admission(applicant, members[0], time=0.0)
        result = controller.resolve(request, time=0.0)
        assert not result.admitted
        assert result.refusal_reason == RefusalReason.ADMISSION_CLOSED
