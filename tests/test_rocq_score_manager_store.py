"""Tests for ROCQ score managers and the replicated reputation store.

Score managers are plain data; the update rule lives in
:class:`~repro.rocq.store.ReputationStore`, so the record-level behaviours
are checked through the store on a small ring, reading each manager's
replica back through ``export_state``.
"""

from __future__ import annotations

import pytest

from repro.overlay.assignment import ScoreManagerAssignment
from repro.overlay.ring import ChordRing
from repro.rocq.protocol import AdjustmentKind, FeedbackReport, ReputationAdjustment
from repro.rocq.score_manager import ReputationRecord
from repro.rocq.store import ReputationStore


def small_store(peers: int = 10, managers: int = 3, **config) -> ReputationStore:
    """A store over a ring of ``peers`` peers with ``managers`` replicas each."""
    ring = ChordRing()
    for peer_id in range(peers):
        ring.join(peer_id)
    assignment = ScoreManagerAssignment(ring=ring, num_score_managers=managers)
    return ReputationStore(assignment=assignment, **config)


def replica_records(store: ReputationStore, subject: int) -> list[dict | None]:
    """The record each current manager of ``subject`` holds (``None`` if none)."""
    managers = store.export_state()["managers"]
    return [
        managers.get(str(manager), {}).get("records", {}).get(str(subject))
        for manager in store.managers_for(subject)
    ]


def credibility_of(store: ReputationStore, reporter: int) -> list[float]:
    """Every manager's credibility for ``reporter``."""
    return [
        manager["credibility"][str(reporter)]["value"]
        for manager in store.export_state()["managers"].values()
        if str(reporter) in manager["credibility"]
    ]


def report(reporter, subject, value, quality=0.8, time=1.0) -> FeedbackReport:
    return FeedbackReport(
        reporter=reporter, subject=subject, value=value, quality=quality, time=time
    )


def adjustment(subject, delta, kind=AdjustmentKind.LEND_CREDIT, time=1.0):
    return ReputationAdjustment(
        kind=kind, issuer=subject, subject=subject, delta=delta, time=time
    )


class TestReputationRecord:
    def test_first_report_adopts_value(self):
        store = small_store()
        store.submit_report(report(1, 5, 1.0, quality=0.1))
        assert all(record["value"] == 1.0 for record in replica_records(store, 5))
        assert store.global_reputation(5) == pytest.approx(1.0)

    def test_reports_move_value_by_weight(self):
        # weight = smoothing x credibility x quality = 0.5 x 1.0 x 0.5.
        store = small_store(opinion_smoothing=0.5, initial_credibility=1.0)
        store.set_reputation(5, 1.0)
        store.submit_report(report(1, 5, 0.0, quality=0.5))
        assert store.global_reputation(5) == pytest.approx(0.75)
        # Twice the weight, twice the step.
        store = small_store(opinion_smoothing=0.5, initial_credibility=1.0)
        store.set_reputation(5, 1.0)
        store.submit_report(report(1, 5, 0.0, quality=1.0))
        assert store.global_reputation(5) == pytest.approx(0.5)

    def test_value_clamped(self):
        store = small_store()
        store.set_reputation(5, 0.9)
        store.apply_adjustment(adjustment(5, 0.5))
        assert store.global_reputation(5) == 1.0
        store.apply_adjustment(adjustment(5, -2.0, kind=AdjustmentKind.SANCTION))
        assert store.global_reputation(5) == 0.0
        store.set_reputation(6, 1.7)
        assert store.global_reputation(6) == 1.0

    def test_adjustment_returns_amount_actually_applied(self):
        store = small_store()
        store.set_reputation(5, 0.95)
        applied = store.apply_adjustment(adjustment(5, 0.2))
        assert applied == pytest.approx(0.05)
        applied = store.apply_adjustment(
            adjustment(5, -0.1, kind=AdjustmentKind.LEND_DEBIT, time=2.0)
        )
        assert applied == pytest.approx(-0.1)

    def test_snapshot_round_trip(self):
        record = ReputationRecord(value=0.42, reports=3, adjustments=1, last_update=9.0)
        rebuilt = ReputationRecord.from_snapshot(record.snapshot())
        assert rebuilt == record


class TestScoreManager:
    def test_unknown_subject_has_no_reputation(self):
        store = small_store()
        assert store.global_reputation(5) == store.newcomer_reputation()
        assert replica_records(store, 5) == [None] * len(store.managers_for(5))

    def test_receive_report_creates_record(self):
        store = small_store()
        value = store.submit_report(report(2, 5, 1.0, quality=0.5))
        records = replica_records(store, 5)
        assert all(record is not None for record in records)
        assert all(record["reports"] == 1 for record in records)
        assert value == store.global_reputation(5)

    def test_repeated_positive_reports_drive_reputation_up(self):
        store = small_store()
        store.set_reputation(5, 0.1)
        for time in range(1, 60):
            store.submit_report(report(2, 5, 1.0, time=float(time)))
        assert store.global_reputation(5) > 0.8

    def test_repeated_negative_reports_drive_reputation_down(self):
        store = small_store()
        store.set_reputation(5, 0.9)
        for time in range(1, 60):
            store.submit_report(report(2, 5, 0.0, time=float(time)))
        assert store.global_reputation(5) < 0.2

    def test_low_credibility_reporters_have_less_influence(self):
        with_credibility = small_store(use_credibility=True)
        without_credibility = small_store(use_credibility=False)
        # Reporter 9 destroys its credibility by always disagreeing with the
        # aggregate built by reporter 3; reporter 3 keeps agreeing with it.
        for store in (with_credibility, without_credibility):
            for time in range(1, 40):
                store.submit_report(report(3, 7, 1.0, quality=0.9, time=float(time)))
                store.submit_report(report(9, 7, 0.0, quality=0.9, time=float(time)))
        low_cred = credibility_of(with_credibility, 9)
        high_cred = credibility_of(with_credibility, 3)
        assert low_cred and len(low_cred) == len(high_cred)
        assert all(low < high for low, high in zip(low_cred, high_cred))
        # Credibility weighting keeps the aggregate closer to the credible
        # reporter's view than plain unweighted averaging does.
        assert (
            with_credibility.global_reputation(7)
            > without_credibility.global_reputation(7)
        )
        assert with_credibility.global_reputation(7) > 0.5

    def test_adjustments_follow_protocol_messages(self):
        store = small_store()
        store.set_reputation(4, 0.5)
        applied = store.apply_adjustment(
            adjustment(4, -0.1, kind=AdjustmentKind.LEND_DEBIT)
        )
        assert applied == pytest.approx(-0.1)
        assert store.global_reputation(4) == pytest.approx(0.4)
        assert all(record["adjustments"] == 1 for record in replica_records(store, 4))

    def test_quality_weighting_can_be_disabled(self):
        with_quality = small_store(use_quality=True)
        without_quality = small_store(use_quality=False)
        for store in (with_quality, without_quality):
            store.set_reputation(3, 0.5)
            store.submit_report(report(1, 3, 1.0, quality=0.1))
        # Ignoring the low quality makes the report move the value further.
        assert without_quality.global_reputation(3) > with_quality.global_reputation(3)


class TestFeedbackReportValidation:
    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            FeedbackReport(reporter=1, subject=2, value=1.5, quality=0.5, time=0.0)

    def test_rejects_out_of_range_quality(self):
        with pytest.raises(ValueError):
            FeedbackReport(reporter=1, subject=2, value=0.5, quality=-0.1, time=0.0)


class TestReputationStore:
    def test_default_reputation_for_unknown_subject(self, store_with_ring):
        assert store_with_ring.global_reputation(999) == pytest.approx(0.0)

    def test_set_and_query_reputation(self, store_with_ring):
        store_with_ring.set_reputation(3, 0.8)
        assert store_with_ring.global_reputation(3) == pytest.approx(0.8)

    def test_reports_update_all_replicas(self, store_with_ring):
        store_with_ring.submit_report(report(1, 4, 1.0, quality=0.7))
        records = replica_records(store_with_ring, 4)
        assert len(records) == len(store_with_ring.managers_for(4))
        assert all(record is not None and record["value"] > 0.0 for record in records)

    def test_adjustment_mean_applied(self, store_with_ring):
        store_with_ring.set_reputation(2, 0.5)
        applied = store_with_ring.apply_adjustment(
            ReputationAdjustment(
                kind=AdjustmentKind.LEND_CREDIT, issuer=1, subject=2, delta=0.2, time=1.0
            )
        )
        assert applied == pytest.approx(0.2)
        assert store_with_ring.global_reputation(2) == pytest.approx(0.7)

    def test_assignment_cache_invalidation(self, store_with_ring):
        before = store_with_ring.managers_for(1)
        ring = store_with_ring.assignment.ring
        for peer_id in range(100, 130):
            ring.join(peer_id)
        # Without invalidation the cached assignment is returned.
        assert store_with_ring.managers_for(1) == before
        store_with_ring.invalidate_assignments()
        after = store_with_ring.managers_for(1)
        assert set(after) != set(before) or after == before  # recomputed, may differ

    def test_counters_track_deliveries(self, store_with_ring):
        store_with_ring.submit_report(
            FeedbackReport(reporter=1, subject=2, value=1.0, quality=0.5, time=0.0)
        )
        store_with_ring.apply_adjustment(
            ReputationAdjustment(
                kind=AdjustmentKind.SANCTION, issuer=2, subject=2, delta=-1.0, time=0.0
            )
        )
        assert store_with_ring.reports_delivered > 0
        assert store_with_ring.adjustments_delivered > 0
