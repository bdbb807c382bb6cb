"""Tests for the metrics layer: time series, success rate, collector, summary."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.config import SimulationParameters
from repro.core.introduction import RefusalReason
from repro.core.lending import LendingStats
from repro.metrics.collector import MetricsCollector
from repro.metrics.success_rate import SuccessRateTracker
from repro.metrics.summary import RunSummary
from repro.metrics.timeseries import TimeSeries
from repro.numeric import pairwise_sum
from repro.peers.behavior import CooperativeBehavior, FreeriderBehavior
from repro.peers.peer import Peer


class TestTimeSeries:
    def test_append_and_length(self):
        series = TimeSeries(name="x")
        series.append(0.0, 1.0)
        series.append(1.0, 2.0)
        assert len(series) == 2
        assert bool(series)

    def test_rejects_out_of_order_times(self):
        series = TimeSeries()
        series.append(5.0, 1.0)
        with pytest.raises(ValueError):
            series.append(4.0, 1.0)

    def test_finite_drops_nan(self):
        series = TimeSeries()
        series.append(0.0, float("nan"))
        series.append(1.0, 2.0)
        clean = series.finite()
        assert len(clean) == 1
        assert clean.values == [2.0]

    def test_mean_and_last_value(self):
        series = TimeSeries()
        assert math.isnan(series.mean())
        assert math.isnan(series.last_value())
        series.append(0.0, 1.0)
        series.append(1.0, 3.0)
        assert series.mean() == pytest.approx(2.0)
        assert series.last_value() == pytest.approx(3.0)

    def test_round_trip_dict(self):
        series = TimeSeries(name="s")
        series.append(0.0, 0.5)
        rebuilt = TimeSeries.from_dict(series.to_dict())
        assert rebuilt.name == "s"
        assert rebuilt.times == series.times
        assert rebuilt.values == series.values


class TestPairwiseSum:
    """numpy is the reference: ``pairwise_sum`` must add in its order."""

    @staticmethod
    def _lengths():
        # Every length up to 300 covers the short loop, each remainder of
        # the eight-lane blocks and the first splits; the sampled longer
        # lengths reach numpy's deeper recursion up to 10,000.
        plan = random.Random(3)
        return [*range(301), *sorted(plan.sample(range(301, 10_001), 60)), 10_000]

    def test_matches_numpy_add_reduce(self):
        plan = random.Random(1)
        for length in self._lengths():
            values = [
                plan.random() * 10.0 ** plan.randint(-8, 8) * plan.choice((1, -1))
                for _ in range(length)
            ]
            expected = float(np.add.reduce(np.array(values, dtype=float)))
            assert pairwise_sum(values) == expected, length

    def test_negative_zeros_sum_to_zero_as_in_numpy(self):
        assert math.copysign(1.0, pairwise_sum([-0.0, -0.0])) == 1.0
        assert math.copysign(1.0, pairwise_sum([-0.0] * 20)) == 1.0

    def test_time_series_mean_matches_numpy_mean(self):
        plan = random.Random(2)
        for length in self._lengths()[1:]:
            series = TimeSeries()
            for step in range(length):
                value = plan.random() * 10.0 ** plan.randint(-6, 6)
                series.append(float(step), value if plan.random() > 0.01 else math.nan)
            finite = [value for value in series.values if math.isfinite(value)]
            expected = float(np.array(finite).mean()) if finite else math.nan
            assert repr(series.mean()) == repr(expected), length


class TestSuccessRateTracker:
    def test_empty_tracker_has_nan_rate(self):
        assert math.isnan(SuccessRateTracker().success_rate)

    def test_paper_formula(self):
        tracker = SuccessRateTracker()
        # 3 correct accepts, 1 wrong accept, 1 wrong denial, 5 correct denials.
        for _ in range(3):
            tracker.record(requester_cooperative=True, served=True)
        tracker.record(requester_cooperative=False, served=True)
        tracker.record(requester_cooperative=True, served=False)
        for _ in range(5):
            tracker.record(requester_cooperative=False, served=False)
        assert tracker.total_decisions == 10
        assert tracker.correct_decisions == 8
        assert tracker.success_rate == pytest.approx(0.8)


class TestMetricsCollector:
    def _coop_peer(self, peer_id=1):
        return Peer(peer_id=peer_id, behavior=CooperativeBehavior())

    def _uncoop_peer(self, peer_id=2):
        return Peer(peer_id=peer_id, behavior=FreeriderBehavior())

    def test_arrival_and_admission_counters(self):
        collector = MetricsCollector()
        collector.record_arrival(self._coop_peer())
        collector.record_arrival(self._uncoop_peer())
        collector.record_admission(self._coop_peer())
        assert collector.arrivals_cooperative == 1
        assert collector.arrivals_uncooperative == 1
        assert collector.admitted_cooperative == 1
        assert collector.admitted_uncooperative == 0

    def test_refusal_breakdown(self):
        collector = MetricsCollector()
        collector.record_refusal(RefusalReason.SELECTIVE_REFUSAL, self._uncoop_peer())
        collector.record_refusal(RefusalReason.SELECTIVE_REFUSAL, self._coop_peer())
        collector.record_refusal(
            RefusalReason.INSUFFICIENT_REPUTATION, self._coop_peer()
        )
        assert collector.refusal_count(RefusalReason.SELECTIVE_REFUSAL) == 2
        assert (
            collector.refusal_count(RefusalReason.SELECTIVE_REFUSAL, cooperative=False)
            == 1
        )
        assert (
            collector.refusal_count(RefusalReason.INSUFFICIENT_REPUTATION, cooperative=True)
            == 1
        )

    def test_service_decisions_feed_success_tracker(self):
        collector = MetricsCollector()
        collector.record_service_decision(
            requester_cooperative=True, respondent_cooperative=True, served=True
        )
        collector.record_service_decision(
            requester_cooperative=False, respondent_cooperative=True, served=False
        )
        # Decisions made by uncooperative respondents are not judged.
        collector.record_service_decision(
            requester_cooperative=True, respondent_cooperative=False, served=False
        )
        assert collector.transactions_attempted == 3
        assert collector.decisions.total_decisions == 2
        assert collector.decisions.success_rate == pytest.approx(1.0)

    def test_sample_snapshots_population(self, population_with_members, store_with_ring):
        collector = MetricsCollector()
        for peer in population_with_members.active_peers():
            store_with_ring.set_reputation(
                peer.peer_id, 0.9 if peer.is_cooperative else 0.1
            )
        collector.sample(10.0, population_with_members, store_with_ring)
        assert collector.cooperative_count.last_value() == pytest.approx(5.0)
        assert collector.uncooperative_count.last_value() == pytest.approx(1.0)
        assert collector.cooperative_reputation.last_value() == pytest.approx(0.9)
        assert collector.uncooperative_reputation.last_value() == pytest.approx(0.1)


class TestRunSummary:
    def _summary(self) -> RunSummary:
        collector = MetricsCollector()
        collector.record_arrival(Peer(peer_id=1, behavior=CooperativeBehavior()))
        collector.record_admission(Peer(peer_id=1, behavior=CooperativeBehavior()))
        collector.record_service_decision(True, True, True)
        return RunSummary.from_run(
            params=SimulationParameters(),
            seed=7,
            collector=collector,
            lending_stats=LendingStats(introductions_granted=1),
            final_cooperative=90,
            final_uncooperative=10,
            final_waiting=2,
            final_rejected=3,
            elapsed_seconds=1.5,
        )

    def test_derived_quantities(self):
        summary = self._summary()
        assert summary.final_total == 100
        assert summary.final_uncooperative_fraction == pytest.approx(0.1)
        assert summary.success_rate == pytest.approx(1.0)

    def test_to_dict_round_trips_core_fields(self):
        summary = self._summary()
        data = summary.to_dict()
        assert data["final_cooperative"] == 90
        assert data["seed"] == 7
        assert data["introductions_granted"] == 1
        assert data["params"]["num_initial_peers"] == 500
