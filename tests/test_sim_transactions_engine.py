"""Tests for the transaction engine and the full simulation engine."""

from __future__ import annotations

import pytest

from repro.config import BootstrapMode, SimulationParameters
from repro.errors import SimulationError
from repro.peers.peer import PeerStatus
from repro.rocq.store import ReputationStore
from repro.sim.engine import Simulation, run_simulation


class TestTransactionEngine:
    def _ready_simulation(self, **overrides) -> Simulation:
        params = SimulationParameters(
            num_initial_peers=30,
            num_transactions=200,
            arrival_rate=0.0,
            sample_interval=100.0,
            seed=9,
            **overrides,
        )
        simulation = Simulation(params)
        simulation.setup()
        return simulation

    def test_execute_returns_outcome_between_members(self):
        simulation = self._ready_simulation()
        outcome = simulation.transactions.execute(time=1.0)
        assert outcome is not None
        assert outcome.requester != outcome.respondent
        assert outcome.requester in simulation.population.active_ids
        assert outcome.respondent in simulation.population.active_ids

    def test_high_reputation_requesters_get_served(self):
        simulation = self._ready_simulation()
        served = 0
        total = 300
        for time in range(1, total + 1):
            outcome = simulation.transactions.execute(float(time))
            assert outcome is not None
            served += outcome.served
        # Founders all have reputation 1.0 so almost every request is served.
        assert served / total > 0.9

    def test_feedback_reaches_score_managers(self):
        simulation = self._ready_simulation()
        before = simulation.store.reports_delivered
        for time in range(1, 50):
            simulation.transactions.execute(float(time))
        assert simulation.store.reports_delivered > before

    def test_metrics_record_decisions(self):
        simulation = self._ready_simulation()
        for time in range(1, 100):
            simulation.transactions.execute(float(time))
        assert simulation.metrics.transactions_attempted == 99
        assert simulation.metrics.decisions.total_decisions > 0

    def test_no_transaction_with_fewer_than_two_members(self):
        params = SimulationParameters(
            num_initial_peers=1, num_transactions=10, arrival_rate=0.0, seed=1
        )
        simulation = Simulation(params)
        simulation.setup()
        assert simulation.transactions.execute(1.0) is None


class TestSlotDelivery:
    """What one transaction slot hands the reputation backend.

    The engine hoists the store's ``submit_report_batch`` when it is built,
    so the recorder wraps the class before the simulation exists, as
    perfbench's ``rocq.report_delivery`` span does.
    """

    def _recorded_simulation(self, monkeypatch) -> tuple[Simulation, list]:
        batches: list[tuple] = []
        deliver = ReputationStore.submit_report_batch

        def recorder(store, reports):
            batches.append(reports)
            deliver(store, reports)

        monkeypatch.setattr(ReputationStore, "submit_report_batch", recorder)
        simulation = Simulation(
            SimulationParameters(
                num_initial_peers=30,
                num_transactions=200,
                arrival_rate=0.0,
                sample_interval=100.0,
                seed=9,
            )
        )
        simulation.setup()
        return simulation, batches

    def test_served_transaction_delivers_one_batch_of_two_reports(self, monkeypatch):
        simulation, batches = self._recorded_simulation(monkeypatch)
        store, population = simulation.store, simulation.population
        served = 0
        for time in range(1, 100):
            calls, delivered = len(batches), store.reports_delivered
            outcome = simulation.transactions.execute(float(time))
            assert outcome is not None
            if not outcome.served:
                assert len(batches) == calls
                continue
            served += 1
            assert len(batches) == calls + 1
            batch = batches[-1]
            assert len(batch) == 2
            first, second = batch
            requester, respondent = outcome.requester, outcome.respondent
            for report, reporter, subject, satisfied in (
                (first, requester, respondent, outcome.requester_satisfied),
                (second, respondent, requester, outcome.respondent_satisfied),
            ):
                assert (report.reporter, report.subject) == (reporter, subject)
                assert report.time == float(time)
                peer = population.get(reporter)
                assert report.value == peer.behavior.report_value(subject, satisfied)
                assert report.quality == peer.opinions.opinion(subject).quality
            assert store.reports_delivered - delivered == len(
                store.managers_for(respondent)
            ) + len(store.managers_for(requester))
        assert served > 50

    def test_denied_transaction_delivers_nothing(self, monkeypatch):
        simulation, batches = self._recorded_simulation(monkeypatch)
        store = simulation.store
        for peer_id in simulation.population.active_ids:
            store.set_reputation(peer_id, 0.0)
        delivered = store.reports_delivered
        for time in range(1, 20):
            outcome = simulation.transactions.execute(float(time))
            assert outcome is not None and not outcome.served
        assert batches == []
        assert store.reports_delivered == delivered


class TestSimulationEngine:
    def test_run_produces_summary(self, micro_params):
        summary = run_simulation(micro_params)
        assert summary.final_cooperative >= micro_params.num_initial_peers
        assert summary.transactions_attempted > 0
        assert summary.params == micro_params
        assert len(summary.cooperative_count) >= 2

    def test_same_seed_reproduces_identical_results(self, micro_params):
        first = run_simulation(micro_params, seed=123)
        second = run_simulation(micro_params, seed=123)
        assert first.final_cooperative == second.final_cooperative
        assert first.final_uncooperative == second.final_uncooperative
        assert first.transactions_served == second.transactions_served
        assert first.success_rate == pytest.approx(second.success_rate, nan_ok=True)
        assert first.cooperative_reputation.values == second.cooperative_reputation.values

    def test_different_seeds_differ(self, micro_params):
        first = run_simulation(micro_params, seed=1)
        second = run_simulation(micro_params, seed=2)
        differs = (
            first.transactions_served != second.transactions_served
            or first.final_cooperative != second.final_cooperative
            or first.cooperative_reputation.values != second.cooperative_reputation.values
        )
        assert differs

    def test_running_twice_raises(self, micro_params):
        simulation = Simulation(micro_params)
        simulation.run()
        with pytest.raises(SimulationError):
            simulation.run()

    def test_arrivals_processed_and_classified(self, micro_params):
        summary = run_simulation(micro_params.with_overrides(arrival_rate=0.2))
        assert summary.arrivals_cooperative + summary.arrivals_uncooperative > 0

    def test_waiting_period_delays_admission(self):
        params = SimulationParameters(
            num_initial_peers=20,
            num_transactions=300,
            arrival_rate=0.05,
            waiting_period=200.0,
            sample_interval=100.0,
            seed=4,
        )
        simulation = Simulation(params)
        simulation.step(150)
        # No arrival can have been admitted yet: the waiting period is 200.
        admitted_entrants = [
            peer
            for peer in simulation.population.active_peers()
            if not peer.is_founder
        ]
        assert admitted_entrants == []

    def test_zero_arrival_rate_never_admits_anyone_new(self):
        params = SimulationParameters(
            num_initial_peers=25,
            num_transactions=500,
            arrival_rate=0.0,
            sample_interval=100.0,
            seed=2,
        )
        summary = run_simulation(params)
        assert summary.arrivals_cooperative == 0
        assert summary.arrivals_uncooperative == 0
        assert summary.final_cooperative == 25

    def test_closed_mode_rejects_all_arrivals(self):
        params = SimulationParameters(
            num_initial_peers=20,
            num_transactions=1000,
            arrival_rate=0.05,
            bootstrap_mode=BootstrapMode.CLOSED,
            sample_interval=200.0,
            seed=6,
        )
        summary = run_simulation(params)
        assert summary.admitted_cooperative == 0
        assert summary.admitted_uncooperative == 0
        assert summary.final_cooperative == 20
        assert summary.final_rejected > 0

    def test_open_mode_admits_everyone(self):
        params = SimulationParameters(
            num_initial_peers=20,
            num_transactions=1000,
            arrival_rate=0.05,
            bootstrap_mode=BootstrapMode.OPEN,
            waiting_period=0.0,
            sample_interval=200.0,
            seed=6,
        )
        summary = run_simulation(params)
        arrivals = summary.arrivals_cooperative + summary.arrivals_uncooperative
        admitted = summary.admitted_cooperative + summary.admitted_uncooperative
        assert arrivals > 0
        assert admitted == arrivals

    def test_departure_hook_removes_member(self, micro_params):
        simulation = Simulation(micro_params)
        simulation.setup()
        victim = simulation.population.active_ids[0]
        simulation.schedule_departure(victim, time=5.0)
        simulation.step(10)
        assert victim not in simulation.population.active_ids
        assert simulation.population.get(victim).status == PeerStatus.DEPARTED
        assert victim not in simulation.ring

    def test_lending_mode_entrants_start_with_lent_amount(self):
        params = SimulationParameters(
            num_initial_peers=30,
            num_transactions=2000,
            arrival_rate=0.02,
            waiting_period=50.0,
            fraction_uncooperative=0.0,
            sample_interval=500.0,
            seed=8,
        )
        simulation = Simulation(params)
        summary = simulation.run()
        entrants = [
            peer for peer in simulation.population.active_peers() if not peer.is_founder
        ]
        assert entrants, "expected at least one admitted entrant"
        assert summary.introductions_granted >= len(entrants)
        for peer in entrants:
            assert simulation.lending.contract_for(peer.peer_id) is not None

    def test_reputations_stay_in_unit_interval(self, micro_params):
        simulation = Simulation(micro_params.with_overrides(arrival_rate=0.1))
        simulation.run()
        for peer in simulation.population.active_peers():
            reputation = simulation.store.global_reputation(peer.peer_id)
            assert 0.0 <= reputation <= 1.0
