"""Tests for introducer policies and the introduction protocol registry."""

from __future__ import annotations

import pytest

from repro.config import SimulationParameters
from repro.core.introduction import (
    IntroductionDecision,
    IntroductionRegistry,
    RefusalReason,
)
from repro.core.policies import (
    NaivePolicy,
    RefusingPolicy,
    SelectivePolicy,
    assign_policy,
)
from repro.errors import DuplicateIntroductionError, WaitingPeriodError
from repro.peers.behavior import CooperativeBehavior, FreeriderBehavior


class TestPolicies:
    def test_naive_accepts_everyone(self, rng):
        policy = NaivePolicy()
        assert policy.is_willing(CooperativeBehavior(), rng)
        assert policy.is_willing(FreeriderBehavior(), rng)

    def test_refusing_accepts_nobody(self, rng):
        policy = RefusingPolicy()
        assert not policy.is_willing(CooperativeBehavior(), rng)
        assert not policy.is_willing(FreeriderBehavior(), rng)

    def test_selective_always_accepts_cooperative(self, rng):
        policy = SelectivePolicy(error_rate=0.0)
        assert all(
            policy.is_willing(CooperativeBehavior(), rng) for _ in range(50)
        )

    def test_selective_refuses_uncooperative_without_error(self, rng):
        policy = SelectivePolicy(error_rate=0.0)
        assert not any(
            policy.is_willing(FreeriderBehavior(), rng) for _ in range(50)
        )

    def test_selective_error_rate_statistics(self, rng):
        policy = SelectivePolicy(error_rate=0.1)
        accepted = sum(
            policy.is_willing(FreeriderBehavior(), rng) for _ in range(5000)
        )
        assert 0.05 < accepted / 5000 < 0.16

    def test_assign_policy_uncooperative_always_naive(self, rng):
        params = SimulationParameters(fraction_naive=0.0)
        for _ in range(20):
            policy = assign_policy(FreeriderBehavior(), params, rng)
            assert isinstance(policy, NaivePolicy)

    def test_assign_policy_cooperative_mix(self, rng):
        params = SimulationParameters(fraction_naive=0.3)
        kinds = [
            type(assign_policy(CooperativeBehavior(), params, rng))
            for _ in range(3000)
        ]
        naive_fraction = kinds.count(NaivePolicy) / len(kinds)
        assert 0.25 < naive_fraction < 0.35
        assert SelectivePolicy in kinds

    def test_selective_policy_carries_error_rate_from_params(self, rng):
        params = SimulationParameters(fraction_naive=0.0, selective_error_rate=0.07)
        policy = assign_policy(CooperativeBehavior(), params, rng)
        assert isinstance(policy, SelectivePolicy)
        assert policy.error_rate == pytest.approx(0.07)


class TestIntroductionDecision:
    def test_acceptance_cannot_carry_reason(self):
        with pytest.raises(ValueError):
            IntroductionDecision(accepted=True, reason=RefusalReason.NO_INTRODUCER)

    def test_refusal_requires_reason(self):
        with pytest.raises(ValueError):
            IntroductionDecision(accepted=False)

    def test_valid_combinations(self):
        assert IntroductionDecision(accepted=True).accepted
        refusal = IntroductionDecision(
            accepted=False, reason=RefusalReason.SELECTIVE_REFUSAL
        )
        assert refusal.reason == RefusalReason.SELECTIVE_REFUSAL


class TestIntroductionRegistry:
    def _registry(self, waiting: float = 100.0) -> IntroductionRegistry:
        return IntroductionRegistry(waiting_period=waiting)

    def test_open_request_schedules_response_after_waiting_period(self):
        registry = self._registry(waiting=50.0)
        request = registry.open_request(
            applicant=1, introducer=2, decision=IntroductionDecision(accepted=True),
            time=10.0,
        )
        assert request.respond_at == pytest.approx(60.0)
        assert registry.pending_request(1) is request

    def test_second_request_during_waiting_period_raises(self):
        registry = self._registry(waiting=100.0)
        registry.open_request(
            applicant=1, introducer=2, decision=IntroductionDecision(accepted=True),
            time=0.0,
        )
        with pytest.raises(WaitingPeriodError):
            registry.open_request(
                applicant=1, introducer=3,
                decision=IntroductionDecision(accepted=True), time=50.0,
            )

    def test_request_allowed_after_waiting_period(self):
        registry = self._registry(waiting=100.0)
        registry.open_request(
            applicant=1, introducer=2,
            decision=IntroductionDecision(
                accepted=False, reason=RefusalReason.SELECTIVE_REFUSAL
            ),
            time=0.0,
        )
        registry.resolve(1, time=100.0)
        assert registry.can_request_at(1, 100.0)
        registry.open_request(
            applicant=1, introducer=3, decision=IntroductionDecision(accepted=True),
            time=100.0,
        )

    def test_resolve_marks_granted(self):
        registry = self._registry()
        registry.open_request(
            applicant=1, introducer=2, decision=IntroductionDecision(accepted=True),
            time=0.0,
        )
        registry.resolve(1, time=100.0)
        assert registry.has_been_granted(1)
        assert registry.granted_count() == 1

    def test_duplicate_grant_detected(self):
        registry = self._registry(waiting=10.0)
        registry.open_request(
            applicant=1, introducer=2, decision=IntroductionDecision(accepted=True),
            time=0.0,
        )
        registry.resolve(1, time=10.0)
        registry.open_request(
            applicant=1, introducer=3, decision=IntroductionDecision(accepted=True),
            time=20.0,
        )
        with pytest.raises(DuplicateIntroductionError):
            registry.resolve(1, time=30.0)

    def test_refusals_do_not_count_as_grants(self):
        registry = self._registry(waiting=10.0)
        registry.open_request(
            applicant=1, introducer=2,
            decision=IntroductionDecision(
                accepted=False, reason=RefusalReason.INSUFFICIENT_REPUTATION
            ),
            time=0.0,
        )
        request = registry.resolve(1, time=10.0)
        assert not request.accepted
        assert not registry.has_been_granted(1)

    def test_unique_request_ids(self):
        registry = self._registry(waiting=1.0)
        ids = set()
        for applicant in range(20):
            request = registry.open_request(
                applicant=applicant, introducer=None,
                decision=IntroductionDecision(
                    accepted=False, reason=RefusalReason.NO_INTRODUCER
                ),
                time=0.0,
            )
            ids.add(request.request_id)
        assert len(ids) == 20

    def test_pending_requests_sorted_by_response_time(self):
        registry = self._registry(waiting=10.0)
        registry.open_request(
            applicant=2, introducer=None,
            decision=IntroductionDecision(
                accepted=False, reason=RefusalReason.NO_INTRODUCER
            ),
            time=5.0,
        )
        registry.open_request(
            applicant=1, introducer=None,
            decision=IntroductionDecision(
                accepted=False, reason=RefusalReason.NO_INTRODUCER
            ),
            time=1.0,
        )
        pending = registry.pending_requests()
        assert [request.applicant for request in pending] == [1, 2]
