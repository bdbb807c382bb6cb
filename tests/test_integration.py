"""Integration tests: end-to-end behaviour of the full simulated system.

These exercise the paper's qualitative claims at a small (seconds-long)
scale, on hand-sized configurations; ``tests/test_paper_artefacts.py`` pins
the paper's own shape checks at 4% of its horizon.
"""

from __future__ import annotations

import pytest

from repro.config import BootstrapMode, SimulationParameters
from repro.sim.engine import Simulation, run_simulation

#: Shared small-but-meaningful configuration: ~160 arrivals over 8k transactions.
BASE = SimulationParameters(
    num_initial_peers=150,
    num_transactions=8_000,
    arrival_rate=0.02,
    waiting_period=250.0,
    sample_interval=1_000.0,
    audit_transactions=10,
    seed=42,
)


@pytest.fixture(scope="module")
def lending_run():
    """One lending-mode run shared by several assertions (it is not mutated)."""
    simulation = Simulation(BASE)
    summary = simulation.run()
    return simulation, summary


@pytest.fixture(scope="module")
def open_run():
    """The matching open-admission run."""
    params = BASE.with_overrides(bootstrap_mode=BootstrapMode.OPEN)
    simulation = Simulation(params)
    summary = simulation.run()
    return simulation, summary


class TestCommunityComposition:
    def test_cooperative_peers_dominate_admissions(self, lending_run):
        _, summary = lending_run
        assert summary.admitted_cooperative > summary.admitted_uncooperative

    def test_most_cooperative_arrivals_get_in(self, lending_run):
        _, summary = lending_run
        assert summary.arrivals_cooperative > 0
        admitted_fraction = summary.admitted_cooperative / summary.arrivals_cooperative
        assert admitted_fraction > 0.7

    def test_most_uncooperative_arrivals_kept_out(self, lending_run):
        _, summary = lending_run
        assert summary.arrivals_uncooperative > 0
        admitted_fraction = (
            summary.admitted_uncooperative / summary.arrivals_uncooperative
        )
        # Naive introducers (30% of coop + all uncoop members) still let some in;
        # the point of the mechanism is that the majority are kept out.
        assert admitted_fraction < 0.6

    def test_lending_admits_fewer_freeriders_than_open_admission(
        self, lending_run, open_run
    ):
        _, lending_summary = lending_run
        _, open_summary = open_run
        lending_fraction = lending_summary.admitted_uncooperative / max(
            1, lending_summary.arrivals_uncooperative
        )
        open_fraction = open_summary.admitted_uncooperative / max(
            1, open_summary.arrivals_uncooperative
        )
        assert open_fraction == pytest.approx(1.0)
        assert lending_fraction < open_fraction


class TestReputationDynamics:
    def test_cooperative_reputation_stays_high(self, lending_run):
        _, summary = lending_run
        assert summary.cooperative_reputation.finite().last_value() > 0.7

    def test_uncooperative_reputation_stays_low(self, lending_run):
        _, summary = lending_run
        final = summary.uncooperative_reputation.finite().last_value(default=0.0)
        assert final < 0.4

    def test_all_reputations_in_unit_interval(self, lending_run):
        simulation, _ = lending_run
        for peer in simulation.population.active_peers():
            reputation = simulation.store.global_reputation(peer.peer_id)
            assert 0.0 <= reputation <= 1.0

    def test_founders_keep_high_reputation(self, lending_run):
        simulation, _ = lending_run
        founder_reps = [
            simulation.store.global_reputation(peer.peer_id)
            for peer in simulation.population.founders()
        ]
        assert sum(founder_reps) / len(founder_reps) > 0.75


class TestDecisionQuality:
    def test_success_rate_is_high(self, lending_run):
        _, summary = lending_run
        assert summary.success_rate > 0.8

    def test_success_rate_comparable_to_open_admission(self, lending_run, open_run):
        _, lending_summary = lending_run
        _, open_summary = open_run
        assert abs(lending_summary.success_rate - open_summary.success_rate) < 0.12


class TestLendingAccounting:
    def test_every_admitted_entrant_has_an_introducer(self, lending_run):
        simulation, _ = lending_run
        entrants = [
            peer
            for peer in simulation.population.active_peers()
            if not peer.is_founder
        ]
        assert entrants
        assert all(
            simulation.lending.contract_for(peer.peer_id) is not None
            for peer in entrants
        )

    def test_introductions_match_admissions(self, lending_run):
        _, summary = lending_run
        admitted = summary.admitted_cooperative + summary.admitted_uncooperative
        assert summary.introductions_granted == admitted

    def test_audits_settle_and_mostly_pass_for_cooperative_majority(self, lending_run):
        _, summary = lending_run
        assert summary.audits_passed + summary.audits_failed > 0
        assert summary.audits_passed >= summary.audits_failed

    def test_rewards_and_stakes_are_consistent_with_audit_counts(self, lending_run):
        simulation, summary = lending_run
        stats = simulation.lending.stats
        assert stats.total_rewards_paid == pytest.approx(
            stats.audits_passed * BASE.reward_amount
        )
        assert stats.total_stakes_lost == pytest.approx(
            stats.audits_failed * BASE.intro_amount
        )

    def test_refusal_counts_consistent_with_arrivals(self, lending_run):
        _, summary = lending_run
        arrivals = summary.arrivals_cooperative + summary.arrivals_uncooperative
        admitted = summary.admitted_cooperative + summary.admitted_uncooperative
        refused = sum(summary.refusals.values())
        assert admitted + refused + summary.final_waiting == arrivals


class TestTopologyAndOverlayIntegration:
    def test_ring_contains_exactly_active_members(self, lending_run):
        simulation, _ = lending_run
        active = set(simulation.population.active_ids)
        assert set(simulation.ring.peers()) == active
        assert len(simulation.topology) == len(active)

    def test_score_managers_assigned_for_every_member(self, lending_run):
        simulation, _ = lending_run
        for peer_id in simulation.population.active_ids[:50]:
            managers = simulation.store.managers_for(peer_id)
            assert managers
            assert peer_id not in managers


class TestBaselineComparison:
    def test_fixed_credit_baseline_runs_and_admits_everyone(self):
        params = BASE.with_overrides(
            bootstrap_mode=BootstrapMode.FIXED_CREDIT, num_transactions=3_000
        )
        summary = run_simulation(params)
        arrivals = summary.arrivals_cooperative + summary.arrivals_uncooperative
        admitted = summary.admitted_cooperative + summary.admitted_uncooperative
        assert admitted == arrivals
        assert summary.success_rate > 0.6
