"""Tests for ROCQ local opinions and reporter credibility."""

from __future__ import annotations

import pytest

from repro.overlay.assignment import ScoreManagerAssignment
from repro.overlay.ring import ChordRing
from repro.rocq.opinion import LocalOpinion, OpinionBook, opinion_quality
from repro.rocq.protocol import FeedbackReport
from repro.rocq.store import ReputationStore


def small_store(**config) -> ReputationStore:
    """A store over a ten-peer ring with three replicas per subject."""
    ring = ChordRing()
    for peer_id in range(10):
        ring.join(peer_id)
    assignment = ScoreManagerAssignment(ring=ring, num_score_managers=3)
    return ReputationStore(assignment=assignment, **config)


def credibility_records(store: ReputationStore, reporter: int) -> list[dict]:
    """Every manager's credibility record for ``reporter``."""
    return [
        manager["credibility"][str(reporter)]
        for manager in store.export_state()["managers"].values()
        if str(reporter) in manager["credibility"]
    ]


def report(reporter, subject, value, time=1.0) -> FeedbackReport:
    return FeedbackReport(
        reporter=reporter, subject=subject, value=value, quality=1.0, time=time
    )


class TestLocalOpinion:
    def test_samples_clamped_to_unit_interval(self):
        book = OpinionBook(owner=1)
        book.record_interaction(2, 5.0)
        assert book.opinion(2).mean == 1.0
        book.record_interaction(2, -3.0)
        assert book.opinion(2).mean == pytest.approx(0.5)
        assert book.opinion(2).m2 == pytest.approx(0.5)

    def test_variance_zero_for_constant_samples(self):
        book = OpinionBook(owner=1)
        for _ in range(10):
            book.record_interaction(2, 1.0)
        assert book.opinion(2).m2 == pytest.approx(0.0)

    def test_variance_positive_for_mixed_samples(self):
        book = OpinionBook(owner=1)
        for value in (1.0, 0.0, 1.0, 0.0):
            book.record_interaction(2, value)
        opinion = book.opinion(2)
        # Four squared deviations of 0.25 from the mean 0.5.
        assert opinion.m2 == pytest.approx(1.0)
        assert opinion.mean == pytest.approx(0.5)

    def test_quality_zero_before_any_interaction(self):
        assert LocalOpinion().quality == 0.0

    def test_quality_grows_with_consistent_interactions(self):
        book = OpinionBook(owner=1)
        qualities = []
        for _ in range(20):
            book.record_interaction(2, 1.0)
            qualities.append(book.opinion(2).quality)
        assert qualities[-1] > qualities[0]
        assert qualities[-1] <= 1.0

    def test_quality_lower_for_erratic_behaviour(self):
        book = OpinionBook(owner=1)
        for index in range(20):
            book.record_interaction(2, 1.0)
            book.record_interaction(3, float(index % 2))
        assert book.opinion(3).quality < book.opinion(2).quality

    def test_snapshot_is_frozen(self):
        book = OpinionBook(owner=1)
        book.record_interaction(2, 1.0)
        opinion = book.opinion(2)
        with pytest.raises(AttributeError):
            opinion.interactions = 5
        # Later interactions do not reach an earlier snapshot.
        book.record_interaction(2, 0.0)
        assert opinion.interactions == 1
        assert book.opinion(2).interactions == 2


class TestOpinionBook:
    def test_records_per_subject(self):
        book = OpinionBook(owner=1)
        book.record_interaction(2, 1.0)
        book.record_interaction(3, 0.0)
        assert len(book) == 2
        assert book.opinion(2).interactions == 1
        assert book.opinion(3).interactions == 1

    def test_repeated_interactions_update_same_opinion(self):
        book = OpinionBook(owner=1)
        book.record_interaction(2, 1.0)
        book.record_interaction(2, 0.0)
        assert len(book) == 1
        opinion = book.opinion(2)
        assert opinion.interactions == 2
        assert opinion.mean == pytest.approx(0.5)

    def test_clear_forgets_every_opinion(self):
        book = OpinionBook(owner=1)
        for _ in range(3):
            book.record_interaction(2, 1.0)
        book.record_interaction(3, 0.0)
        book.clear()
        assert len(book) == 0
        assert book.opinion(2) is None and book.opinion(3) is None
        # The next interaction starts a fresh opinion.
        book.record_interaction(2, 0.0)
        assert len(book) == 1
        opinion = book.opinion(2)
        assert opinion.interactions == 1
        assert opinion.mean == 0.0 and opinion.m2 == 0.0

    def test_returned_quality_is_the_opinions_quality(self):
        # The return value is what the reporter attaches to its feedback
        # report; it must be the stored opinion's quality bit for bit, also
        # after clear() has emptied the book and its slots are reused.
        book = OpinionBook(owner=1)
        samples = [1.0, 0.0, 1.0, 1.0, 0.25, 0.0, 1.0]
        for round_ in range(2):
            for index, sample in enumerate(samples):
                subject = 2 + (index + round_) % 3
                quality = book.record_interaction(subject, sample)
                opinion = book.opinion(subject)
                assert quality == opinion.quality
                assert quality == opinion_quality(opinion.interactions, opinion.m2)
            book.clear()


class TestCredibility:
    def test_initial_credibility_for_unknown_reporter(self):
        # Full smoothing and no quality weighting: the step is exactly the
        # credibility the managers give a reporter they have never heard of.
        store = small_store(
            initial_credibility=0.4, opinion_smoothing=1.0, use_quality=False
        )
        store.set_reputation(5, 0.0)
        store.submit_report(report(7, 5, 1.0))
        assert store.global_reputation(5) == pytest.approx(0.4)

    def test_agreement_raises_credibility(self):
        store = small_store(initial_credibility=0.5, credibility_gain=0.2)
        store.set_reputation(5, 0.9)
        for time in range(10):
            store.submit_report(report(1, 5, 0.9, time=float(time)))
        records = credibility_records(store, 1)
        assert records
        assert all(record["value"] > 0.8 for record in records)

    def test_disagreement_lowers_credibility(self):
        store = small_store(initial_credibility=0.5, credibility_gain=0.2)
        for time in range(10):
            # Re-seed the subject at 1.0 so every report dissents maximally.
            store.set_reputation(5, 1.0)
            store.submit_report(report(1, 5, 0.0, time=float(time)))
        records = credibility_records(store, 1)
        assert records
        assert all(record["value"] < 0.2 for record in records)

    def test_record_counts_reports(self):
        store = small_store()
        store.submit_report(report(1, 5, 1.0))
        store.submit_report(report(1, 5, 0.0, time=2.0))
        records = credibility_records(store, 1)
        assert len(records) == len(store.managers_for(5))
        assert all(record["reports"] == 2 for record in records)

    def test_credibility_stays_in_unit_interval(self):
        store = small_store(credibility_gain=0.9)
        for time, (seed, value) in enumerate(
            [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0)]
        ):
            store.set_reputation(5, seed)
            store.submit_report(report(1, 5, value, time=float(time)))
            for record in credibility_records(store, 1):
                assert 0.0 <= record["value"] <= 1.0

    def test_known_reporters_listing(self):
        store = small_store()
        store.submit_report(report(1, 5, 1.0))
        store.submit_report(report(2, 5, 0.0))
        managers = store.export_state()["managers"]
        for manager in store.managers_for(5):
            assert set(managers[str(manager)]["credibility"]) == {"1", "2"}
