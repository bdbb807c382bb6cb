"""Tests for the baseline reputation systems (related-work comparators)."""

from __future__ import annotations

import pytest

from repro.reputation.base import InteractionLog
from repro.reputation.beta import BetaReputation
from repro.reputation.comparison import (
    compare_newcomer_treatment,
    default_systems,
)
from repro.reputation.complaints import ComplaintsBasedTrust
from repro.reputation.eigentrust import EigenTrust
from repro.reputation.positive_only import PositiveOnlyReputation
from repro.reputation.tit_for_tat import TitForTatCredit


class TestInteractionLog:
    def test_record_and_counters(self):
        log = InteractionLog()
        log.record(1, 2, satisfied=True)
        log.record(1, 2, satisfied=False)
        log.record(3, 2, satisfied=True)
        assert log.positives_about(2) == 2
        assert log.negatives_about(2) == 1
        assert log.complaints_by(1) == 1
        assert log.peers == {1, 2, 3}


class TestComplaintsBasedTrust:
    def test_newcomer_is_fully_trusted(self):
        system = ComplaintsBasedTrust()
        assert system.newcomer_score() == pytest.approx(1.0)

    def test_complaints_erode_trust(self):
        system = ComplaintsBasedTrust()
        for _ in range(10):
            system.record_interaction(1, 2, satisfied=False)
        assert system.score(2) < 0.5

    def test_chronic_complainers_also_lose_trust(self):
        system = ComplaintsBasedTrust()
        for victim in range(2, 12):
            system.record_interaction(1, victim, satisfied=False)
        assert system.score(1) < 0.5

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ComplaintsBasedTrust(distrust_threshold=0.0)


class TestPositiveOnly:
    def test_newcomer_starts_at_zero(self):
        assert PositiveOnlyReputation().newcomer_score() == pytest.approx(0.0)

    def test_positive_reports_raise_score_saturating(self):
        system = PositiveOnlyReputation(half_life=5.0)
        for _ in range(5):
            system.record_interaction(1, 2, satisfied=True)
        assert system.score(2) == pytest.approx(0.5)
        for _ in range(100):
            system.record_interaction(1, 2, satisfied=True)
        assert 0.9 < system.score(2) < 1.0

    def test_negative_reports_ignored(self):
        system = PositiveOnlyReputation()
        for _ in range(10):
            system.record_interaction(1, 2, satisfied=False)
        assert system.score(2) == pytest.approx(0.0)


class TestBetaReputation:
    def test_newcomer_in_the_middle(self):
        assert BetaReputation().newcomer_score() == pytest.approx(0.5)

    def test_scores_track_behaviour(self):
        system = BetaReputation()
        for _ in range(20):
            system.record_interaction(1, 2, satisfied=True)
            system.record_interaction(1, 3, satisfied=False)
        assert system.score(2) > 0.9
        assert system.score(3) < 0.1

    def test_forgetting_validation(self):
        with pytest.raises(ValueError):
            BetaReputation(forgetting=0.0)


class TestEigenTrust:
    def _system_with_history(self) -> EigenTrust:
        system = EigenTrust(pre_trusted={0})
        # Peers 0-2 serve each other well; peer 3 serves badly.
        for _ in range(10):
            system.record_interaction(0, 1, satisfied=True)
            system.record_interaction(1, 2, satisfied=True)
            system.record_interaction(2, 0, satisfied=True)
            system.record_interaction(0, 3, satisfied=False)
            system.record_interaction(1, 3, satisfied=False)
        return system

    def test_global_trust_sums_to_one(self):
        trust = self._system_with_history().global_trust()
        assert sum(trust.values()) == pytest.approx(1.0, abs=1e-6)

    def test_good_peers_outrank_bad_ones(self):
        system = self._system_with_history()
        assert system.score(1) > system.score(3)
        assert system.score(2) > system.score(3)

    def test_newcomer_scores_zero_unless_pretrusted(self):
        system = self._system_with_history()
        assert system.score(99) == pytest.approx(0.0)

    def test_empty_log(self):
        assert EigenTrust().global_trust() == {}
        assert EigenTrust().score(1) == 0.0

    def test_damping_validation(self):
        with pytest.raises(ValueError):
            EigenTrust(damping=1.5)


class TestTitForTat:
    def test_newcomer_served_by_everyone(self):
        system = TitForTatCredit()
        system.record_interaction(1, 2, satisfied=True)
        assert system.score(99) == pytest.approx(1.0)

    def test_balances_are_antisymmetric(self):
        system = TitForTatCredit()
        for _ in range(3):
            system.record_interaction(1, 2, satisfied=True)  # 2 served 1
        assert system.balance(2, 1) == pytest.approx(3.0)
        assert system.balance(1, 2) == pytest.approx(-3.0)

    def test_overdrawn_peer_is_not_served(self):
        system = TitForTatCredit(allowance=2.0)
        for _ in range(5):
            system.record_interaction(1, 2, satisfied=True)  # 1 keeps taking from 2
        assert not system.would_serve(2, 1)
        assert system.would_serve(1, 2)

    def test_score_reflects_service_availability(self):
        system = TitForTatCredit(allowance=1.0)
        for server in (2, 3, 4):
            for _ in range(4):
                system.record_interaction(1, server, satisfied=True)
        assert system.score(1) < 0.5

    def test_allowance_validation(self):
        with pytest.raises(ValueError):
            TitForTatCredit(allowance=-1.0)


class TestNewcomerComparison:
    def test_reports_cover_every_default_system(self):
        reports = compare_newcomer_treatment(interactions=300, seed=3)
        assert {report.system for report in reports} == {
            system.name for system in default_systems()
        }

    def test_all_systems_separate_honest_from_freeriders(self):
        reports = compare_newcomer_treatment(interactions=600, seed=3)
        for report in reports:
            assert report.separates_honest_from_freerider, report

    def test_paper_taxonomy_of_newcomer_treatment(self):
        reports = {r.system: r for r in compare_newcomer_treatment(seed=5)}
        # Complaints-based and tit-for-tat over-trust the stranger...
        assert reports["complaints"].newcomer_like_honest
        assert reports["tit_for_tat"].newcomer_score == pytest.approx(1.0)
        # ...while positive-only and EigenTrust freeze it out at the bottom.
        assert reports["positive_only"].newcomer_score == pytest.approx(0.0)
        assert reports["eigentrust"].newcomer_score == pytest.approx(0.0)
        # Beta puts it exactly in the middle.
        assert reports["beta"].newcomer_score == pytest.approx(0.5)

    def test_scores_listing(self):
        system = BetaReputation()
        system.record_interaction(1, 2, satisfied=True)
        scores = system.scores()
        assert set(scores) == {1, 2}
        assert all(0.0 <= value <= 1.0 for value in scores.values())
