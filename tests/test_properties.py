"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.plotting import sparkline
from repro.analysis.tables import format_table
from repro.config import SimulationParameters
from repro.ids import KEY_SPACE_SIZE, PeerIdAllocator, hash_to_key
from repro.metrics.success_rate import SuccessRateTracker
from repro.metrics.timeseries import TimeSeries
from repro.overlay.assignment import ScoreManagerAssignment
from repro.overlay.ring import ChordRing
from repro.rng import derive_seed
from repro.rocq.opinion import OpinionBook
from repro.rocq.protocol import AdjustmentKind, FeedbackReport, ReputationAdjustment
from repro.rocq.score_manager import ReputationRecord
from repro.rocq.store import ReputationStore

# Keep hypothesis fast, and derandomised so every run draws the same examples.
settings.register_profile("repro", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("repro")

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

SUBJECT = 5


def small_store(**config) -> ReputationStore:
    """A store over a six-peer ring with three replicas per subject."""
    ring = ChordRing()
    for peer_id in range(6):
        ring.join(peer_id)
    assignment = ScoreManagerAssignment(ring=ring, num_score_managers=3)
    return ReputationStore(assignment=assignment, **config)


def subject_replicas(store: ReputationStore) -> list[float]:
    """Every replica value ``SUBJECT``'s managers hold."""
    return [
        manager["records"][str(SUBJECT)]["value"]
        for manager in store.export_state()["managers"].values()
        if str(SUBJECT) in manager["records"]
    ]


def report(value: float, quality: float, time: float) -> FeedbackReport:
    return FeedbackReport(
        reporter=1, subject=SUBJECT, value=value, quality=quality, time=time
    )


def adjustment(delta: float, time: float) -> ReputationAdjustment:
    return ReputationAdjustment(
        kind=AdjustmentKind.LEND_CREDIT,
        issuer=1,
        subject=SUBJECT,
        delta=delta,
        time=time,
    )


class TestRingArithmeticProperties:
    @given(data=st.binary(max_size=64))
    def test_hash_to_key_stays_in_key_space(self, data):
        assert 0 <= hash_to_key(data) < KEY_SPACE_SIZE


class TestRingMembershipProperties:
    @given(peer_ids=st.sets(st.integers(min_value=0, max_value=10_000), min_size=1,
                            max_size=40))
    def test_every_key_has_exactly_one_responsible_node(self, peer_ids):
        ring = ChordRing()
        for peer_id in peer_ids:
            ring.join(peer_id)
        assert len(ring) == len(peer_ids)
        probe_keys = [hash_to_key(str(i).encode()) for i in range(10)]
        for key in probe_keys:
            responsible = ring.successor_of(key).peer_id
            assert responsible in peer_ids

    @given(peer_ids=st.lists(st.integers(min_value=0, max_value=1000), min_size=2,
                             max_size=30, unique=True))
    def test_join_then_leave_restores_previous_responsibility(self, peer_ids):
        ring = ChordRing()
        for peer_id in peer_ids[:-1]:
            ring.join(peer_id)
        probe = hash_to_key(b"probe")
        before = ring.successor_of(probe).peer_id
        ring.join(peer_ids[-1])
        ring.leave(peer_ids[-1])
        assert ring.successor_of(probe).peer_id == before


class TestReputationRecordProperties:
    @given(
        initial=unit_floats,
        reports=st.lists(st.tuples(unit_floats, unit_floats), max_size=30),
        adjustments=st.lists(st.floats(min_value=-1.0, max_value=1.0,
                                       allow_nan=False), max_size=10),
    )
    def test_reputation_always_stays_in_unit_interval(self, initial, reports, adjustments):
        # Full smoothing without credibility: the report's quality is its weight.
        store = small_store(opinion_smoothing=1.0, use_credibility=False)
        store.set_reputation(SUBJECT, initial)
        time = 0.0
        for value, weight in reports:
            time += 1.0
            store.submit_report(report(value, weight, time))
            assert all(0.0 <= v <= 1.0 for v in subject_replicas(store))
            assert 0.0 <= store.global_reputation(SUBJECT) <= 1.0
        for delta in adjustments:
            time += 1.0
            store.apply_adjustment(adjustment(delta, time))
            assert all(0.0 <= v <= 1.0 for v in subject_replicas(store))
            assert 0.0 <= store.global_reputation(SUBJECT) <= 1.0

    @given(values=st.lists(unit_floats, min_size=1, max_size=50))
    def test_reputation_bounded_by_report_extremes_after_first(self, values):
        store = small_store()
        for index, value in enumerate(values):
            store.submit_report(report(value, 1.0, float(index)))
        for replica in subject_replicas(store):
            assert min(values) - 1e-9 <= replica <= max(values) + 1e-9

    @given(initial=unit_floats, delta=st.floats(min_value=-1.0, max_value=1.0,
                                                allow_nan=False))
    def test_adjustment_returns_exact_applied_amount(self, initial, delta):
        store = small_store()
        store.set_reputation(SUBJECT, initial)
        before = store.global_reputation(SUBJECT)
        applied = store.apply_adjustment(adjustment(delta, 1.0))
        after = store.global_reputation(SUBJECT)
        assert math.isclose(after, before + applied, abs_tol=1e-12)

    def test_snapshot_round_trip_property(self):
        @given(value=unit_floats, reports=st.integers(0, 100),
               adjustments=st.integers(0, 100), when=st.floats(0, 1e6))
        def inner(value, reports, adjustments, when):
            record = ReputationRecord(value=value, reports=reports,
                                      adjustments=adjustments, last_update=when)
            assert ReputationRecord.from_snapshot(record.snapshot()) == record

        inner()


class TestOpinionAndCredibilityProperties:
    @given(samples=st.lists(unit_floats, min_size=1, max_size=50))
    def test_opinion_stats_and_quality_bounded(self, samples):
        book = OpinionBook(owner=1)
        for sample in samples:
            book.record_interaction(2, sample)
        opinion = book.opinion(2)
        # The running (Welford) statistics agree with a two-pass computation.
        mean = math.fsum(samples) / len(samples)
        assert opinion.interactions == len(samples)
        assert 0.0 <= opinion.mean <= 1.0
        assert math.isclose(opinion.mean, mean, abs_tol=1e-9)
        squares = math.fsum((sample - mean) ** 2 for sample in samples)
        assert math.isclose(opinion.m2, squares, abs_tol=1e-9)
        assert 0.0 <= opinion.quality <= 1.0

    @given(reports=st.lists(st.tuples(unit_floats, unit_floats), max_size=50),
           gain=st.floats(min_value=0.01, max_value=1.0))
    def test_credibility_bounded(self, reports, gain):
        # Each report lands on a freshly re-seeded value, so its agreement
        # ranges over the whole unit interval.
        store = small_store(credibility_gain=gain)
        for index, (seed, value) in enumerate(reports):
            store.set_reputation(SUBJECT, seed)
            store.submit_report(report(value, 1.0, float(index)))
        for manager in store.export_state()["managers"].values():
            for record in manager["credibility"].values():
                assert 0.0 <= record["value"] <= 1.0


class TestSuccessTrackerProperties:
    @given(decisions=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=200))
    def test_rate_between_zero_and_one_and_counts_add_up(self, decisions):
        tracker = SuccessRateTracker()
        for cooperative, served in decisions:
            tracker.record(cooperative, served)
        assert tracker.total_decisions == len(decisions)
        if decisions:
            assert 0.0 <= tracker.success_rate <= 1.0
        assert (
            tracker.correct_decisions
            + tracker.accepted_uncooperative
            + tracker.denied_cooperative
            == tracker.total_decisions
        )


class TestTimeSeriesProperties:
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                     width=32), max_size=40))
    def test_round_trip_and_monotone_times(self, values):
        series = TimeSeries(name="p")
        for index, value in enumerate(values):
            series.append(float(index), value)
        rebuilt = TimeSeries.from_dict(series.to_dict())
        assert rebuilt.values == series.values
        assert rebuilt.times == sorted(rebuilt.times)


class TestMiscellaneousProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           token=st.text(max_size=20))
    def test_derive_seed_deterministic_and_in_range(self, seed, token):
        first = derive_seed(seed, token)
        second = derive_seed(seed, token)
        assert first == second
        assert 0 <= first < 2**63

    @given(count=st.integers(min_value=0, max_value=200))
    def test_allocator_ids_unique_and_dense(self, count):
        allocator = PeerIdAllocator()
        ids = [allocator.allocate() for _ in range(count)]
        assert ids == list(range(count))

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                     width=32), max_size=30))
    def test_sparkline_length_matches_input(self, values):
        assert len(sparkline(values)) == len(values)

    @given(rows=st.lists(st.lists(st.integers(-1000, 1000), min_size=2, max_size=2),
                         max_size=10))
    def test_format_table_line_count(self, rows):
        text = format_table(["a", "b"], rows)
        assert len(text.splitlines()) == 2 + len(rows)

    @given(factor=st.floats(min_value=0.001, max_value=1.0))
    def test_scaled_params_always_valid(self, factor):
        params = SimulationParameters().scaled(factor)
        assert params.num_transactions >= 1
        assert params.sample_interval >= 1.0
