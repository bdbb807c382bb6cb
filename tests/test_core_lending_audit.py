"""Tests for the lending manager and the audit logic."""

from __future__ import annotations

import pytest

from repro.config import SimulationParameters
from repro.core.audit import AuditOutcome, evaluate_audit
from repro.core.lending import LendingManager
from repro.rocq.protocol import FeedbackReport


@pytest.fixture
def lending_setup(store_with_ring):
    """A lending manager over the shared 10-peer store with fast audits."""
    params = SimulationParameters(
        intro_amount=0.1,
        reward_amount=0.02,
        audit_transactions=3,
        audit_pass_threshold=0.5,
    )
    manager = LendingManager(store=store_with_ring, params=params)
    return store_with_ring, params, manager


class TestEvaluateAudit:
    def test_pass_at_or_above_threshold(self):
        assert evaluate_audit(0.5, 0.5) == AuditOutcome.PASSED
        assert evaluate_audit(0.9, 0.5) == AuditOutcome.PASSED

    def test_fail_below_threshold(self):
        assert evaluate_audit(0.49, 0.5) == AuditOutcome.FAILED
        assert evaluate_audit(0.0, 0.5) == AuditOutcome.FAILED


class TestCanLend:
    def test_requires_min_intro_reputation(self, lending_setup):
        store, params, manager = lending_setup
        introducer = 0
        store.set_reputation(introducer, params.effective_min_intro_reputation() - 0.01)
        assert not manager.can_lend(introducer)
        store.set_reputation(introducer, params.effective_min_intro_reputation())
        assert manager.can_lend(introducer)

    def test_new_peer_cannot_lend(self, lending_setup):
        _, _, manager = lending_setup
        assert not manager.can_lend(999)  # reputation defaults to 0


class TestLend:
    def test_lend_debits_introducer_and_credits_entrant(self, lending_setup):
        store, params, manager = lending_setup
        store.set_reputation(0, 1.0)
        contract = manager.lend(introducer=0, entrant=5, time=10.0)
        assert store.global_reputation(0) == pytest.approx(1.0 - params.intro_amount)
        assert store.global_reputation(5) == pytest.approx(params.intro_amount)
        assert contract.amount == pytest.approx(params.intro_amount)
        assert contract.transactions_until_audit == params.audit_transactions
        assert manager.contract_for(5) is contract
        assert manager.stats.introductions_granted == 1
        assert manager.stats.total_reputation_lent == pytest.approx(params.intro_amount)

    def test_outstanding_contracts_listing(self, lending_setup):
        store, _, manager = lending_setup
        store.set_reputation(0, 1.0)
        manager.lend(0, 5, time=1.0)
        manager.lend(0, 6, time=2.0)
        assert len(manager.outstanding_contracts()) == 2


class TestAuditSettlement:
    def test_audit_triggers_after_configured_transactions(self, lending_setup):
        store, params, manager = lending_setup
        store.set_reputation(0, 1.0)
        manager.lend(0, 5, time=0.0)
        store.set_reputation(5, 0.9)  # entrant behaved well
        assert manager.note_transaction(5, time=1.0) is None
        assert manager.note_transaction(5, time=2.0) is None
        result = manager.note_transaction(5, time=3.0)
        assert result is not None
        assert result.passed
        assert manager.stats.audits_passed == 1

    def test_successful_audit_returns_stake_plus_reward(self, lending_setup):
        store, params, manager = lending_setup
        store.set_reputation(0, 0.5)
        manager.lend(0, 5, time=0.0)
        assert store.global_reputation(0) == pytest.approx(0.4)
        store.set_reputation(5, 0.9)
        result = manager.settle(5, time=5.0)
        assert result is not None and result.passed
        expected = 0.4 + params.intro_amount + params.reward_amount
        assert store.global_reputation(0) == pytest.approx(expected)
        assert manager.stats.total_rewards_paid == pytest.approx(params.reward_amount)

    def test_return_clamped_at_one(self, lending_setup):
        store, params, manager = lending_setup
        store.set_reputation(0, 1.0)
        manager.lend(0, 5, time=0.0)
        # The introducer independently regained reputation before the audit.
        store.set_reputation(0, 1.0)
        store.set_reputation(5, 0.9)
        result = manager.settle(5, time=5.0)
        assert result is not None
        assert store.global_reputation(0) == pytest.approx(1.0)
        assert result.returned_to_introducer == pytest.approx(0.0)

    def test_failed_audit_strips_entrant_and_keeps_stake_lost(self, lending_setup):
        store, params, manager = lending_setup
        store.set_reputation(0, 1.0)
        manager.lend(0, 5, time=0.0)
        # The entrant freerode: its reputation decayed close to zero.
        store.set_reputation(5, 0.05)
        result = manager.settle(5, time=5.0)
        assert result is not None and not result.passed
        assert store.global_reputation(0) == pytest.approx(0.9)  # stake not returned
        assert store.global_reputation(5) == pytest.approx(0.0)  # floored at zero
        assert manager.stats.audits_failed == 1
        assert manager.stats.total_stakes_lost == pytest.approx(params.intro_amount)

    def test_settle_is_idempotent(self, lending_setup):
        store, _, manager = lending_setup
        store.set_reputation(0, 1.0)
        manager.lend(0, 5, time=0.0)
        store.set_reputation(5, 0.9)
        first = manager.settle(5, time=5.0)
        second = manager.settle(5, time=6.0)
        assert first is not None
        assert second is None
        assert manager.stats.audits_settled == 1

    def test_note_transaction_for_unknown_entrant_is_noop(self, lending_setup):
        _, _, manager = lending_setup
        assert manager.note_transaction(42, time=1.0) is None


class TestSanction:
    def test_sanction_zeroes_reputation(self, lending_setup):
        store, _, manager = lending_setup
        store.set_reputation(3, 0.8)
        manager.sanction(3, time=1.0)
        assert store.global_reputation(3) == pytest.approx(0.0)
        assert manager.stats.sanctions_applied == 1


class TestInteractionWithFeedback:
    def test_cooperative_entrant_passes_audit_through_feedback(self, lending_setup):
        """End-to-end: lend, accumulate honest positive feedback, pass audit."""
        store, params, manager = lending_setup
        store.set_reputation(0, 1.0)
        manager.lend(0, 5, time=0.0)
        for time in range(1, 40):
            store.submit_report(
                FeedbackReport(reporter=1, subject=5, value=1.0, quality=0.8,
                               time=float(time))
            )
        assert store.global_reputation(5) > params.audit_pass_threshold
        result = manager.settle(5, time=50.0)
        assert result is not None and result.passed

    def test_freeriding_entrant_fails_audit_through_feedback(self, lending_setup):
        store, params, manager = lending_setup
        store.set_reputation(0, 1.0)
        manager.lend(0, 5, time=0.0)
        for time in range(1, 40):
            store.submit_report(
                FeedbackReport(reporter=1, subject=5, value=0.0, quality=0.8,
                               time=float(time))
            )
        assert store.global_reputation(5) < params.audit_pass_threshold
        result = manager.settle(5, time=50.0)
        assert result is not None and not result.passed
