"""ROCQ's per-pair tables against a dict-based reference.

Every score manager keeps its reporters' credibility, and every peer its
opinions of partners, in flat arrays aligned with an ascending array of
ids (``ScoreManager.reporters``, ``OpinionBook._subjects``).  This module
keeps the plain reading of the same update rules, one dict per table, as a
reference, the way ``tests/test_rng_ids.py`` keeps numpy as the reference
of the random streams: random report streams must give the store the same
``export_state()`` and ``state_digest()`` as the reference, and every id
array must stay strictly ascending and aligned with its value arrays.
"""

from __future__ import annotations

import hashlib
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.overlay.assignment import ScoreManagerAssignment
from repro.overlay.ring import ChordRing
from repro.rocq.opinion import OpinionBook, opinion_quality
from repro.rocq.protocol import FeedbackReport
from repro.rocq.score_manager import ReputationRecord
from repro.rocq.store import ReputationStore

INITIAL_CREDIBILITY = 0.5
CREDIBILITY_GAIN = 0.1
OPINION_SMOOTHING = 0.3


def clamp(value: float) -> float:
    return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value


def ring_assignment() -> ScoreManagerAssignment:
    """Ten score-manager peers, three replicas per subject."""
    ring = ChordRing()
    for peer_id in range(10):
        ring.join(peer_id)
    return ScoreManagerAssignment(ring=ring, num_score_managers=3)


class ReferenceOpinions:
    """One peer's opinions as ``subject -> (interactions, mean, m2)``."""

    def __init__(self) -> None:
        self.stats: dict[int, tuple[int, float, float]] = {}

    def record_interaction(self, subject: int, satisfaction: float) -> float:
        satisfaction = clamp(satisfaction)
        interactions, mean, m2 = self.stats.get(subject, (0, 0.0, 0.0))
        interactions += 1
        delta = satisfaction - mean
        mean += delta / interactions
        m2 = m2 + delta * (satisfaction - mean)
        self.stats[subject] = (interactions, mean, m2)
        return opinion_quality(interactions, m2)


class ReferenceStore:
    """ROCQ's report update with ``reporter -> (credibility, reports)`` dicts."""

    def __init__(self, assignment: ScoreManagerAssignment) -> None:
        self.assignment = assignment
        self.records: dict[int, dict[int, ReputationRecord]] = {}
        self.credibility: dict[int, dict[int, tuple[float, int]]] = {}
        self.reports_delivered = 0

    def submit(self, report: FeedbackReport) -> None:
        for manager in self.assignment.managers_for(report.subject):
            records = self.records.setdefault(manager, {})
            credibility = self.credibility.setdefault(manager, {})
            record = records.setdefault(report.subject, ReputationRecord())
            cred, reports = credibility.get(
                report.reporter, (INITIAL_CREDIBILITY, 0)
            )
            quality = report.quality if report.quality > 0.05 else 0.05
            weight = clamp(OPINION_SMOOTHING * cred * quality)
            if record.reports == 0 and record.adjustments == 0 and not record.seeded:
                value = report.value
            else:
                value = (1.0 - weight) * record.value + weight * report.value
            record.value = clamp(value)
            record.reports += 1
            record.last_update = report.time
            agreement = clamp(1.0 - abs(report.value - record.value))
            cred = (1.0 - CREDIBILITY_GAIN) * cred + CREDIBILITY_GAIN * agreement
            credibility[report.reporter] = (cred, reports + 1)
            self.reports_delivered += 1

    def export_state(self) -> dict:
        return {
            "scheme": "rocq",
            "managers": {
                str(manager): {
                    "records": {
                        str(subject): record.snapshot()
                        for subject, record in sorted(self.records[manager].items())
                    },
                    "credibility": {
                        str(reporter): {"value": value, "reports": reports}
                        for reporter, (value, reports) in sorted(
                            self.credibility[manager].items()
                        )
                    },
                }
                for manager in sorted(self.records)
            },
            "reports_delivered": self.reports_delivered,
            "adjustments_delivered": 0,
        }

    def state_digest(self) -> str:
        parts = hashlib.sha256()
        for manager in sorted(self.records):
            parts.update(f"m{manager}".encode("ascii"))
            for subject, record in sorted(self.records[manager].items()):
                parts.update(f"|{subject}:{record.snapshot()!r}".encode("utf-8"))
            for reporter, (value, reports) in sorted(self.credibility[manager].items()):
                parts.update(f"|c{reporter}:{value!r}:{reports}".encode("ascii"))
        parts.update(f"|r{self.reports_delivered}a0".encode("ascii"))
        return parts.hexdigest()


def assert_ascending_and_aligned(ids, *columns) -> None:
    assert all(a < b for a, b in zip(ids, ids[1:])), list(ids)
    assert all(len(column) == len(ids) for column in columns)


def assert_tables_match(store, reference, books, reference_books) -> None:
    assert store.export_state() == reference.export_state()
    assert store.encode_state() == json.dumps(
        reference.export_state(), sort_keys=True, allow_nan=False
    )
    assert store.state_digest() == reference.state_digest()
    for manager, credibility in reference.credibility.items():
        state = store.manager_state(manager)
        assert_ascending_and_aligned(
            state.reporters, state.credibility, state.report_counts
        )
        assert list(state.reporters) == sorted(credibility)
    for peer, stats in reference_books.items():
        book = books[peer]
        # A book holds its two arrays only between its first interaction
        # and its owner's departure.
        if not stats:
            assert book._subjects is None and book._stats is None
            assert len(book) == 0
            continue
        columns = book._stats
        assert len(columns) == 3 * len(book._subjects)
        assert_ascending_and_aligned(
            book._subjects, columns[0::3], columns[1::3], columns[2::3]
        )
        assert list(book._subjects) == sorted(stats)
        assert len(book) == len(stats)
        for subject, (interactions, mean, m2) in stats.items():
            opinion = book.opinion(subject)
            assert (opinion.interactions, opinion.mean, opinion.m2) == (
                interactions,
                mean,
                m2,
            )


#: Mostly small ids, so reporters recur and new ones land between known
#: ones, plus a few far apart, up to the largest id an ``array('I')`` holds.
peer_ids = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.sampled_from([500, 70_000, 2**31, 2**32 - 1]),
)

#: ``(reporter, subject, satisfaction, report value, ends the batch)``, or
#: ``(peer, None, ...)`` for a peer that leaves and forgets its opinions.
steps = st.lists(
    st.tuples(
        peer_ids,
        st.one_of(peer_ids, st.none()),
        st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.booleans(),
    ),
    max_size=60,
)

#: Reporters 5, 9, 2 and 7 rate subject 1 (at each of its managers the third
#: lands before the known ids and the fourth between them), and peer 3 rates
#: subjects 5, 9, 2 and 7 (the same in its opinion book); then repeats.
_EVERY_INSERTION = [
    (reporter, 1, 1.0, 1.0, False) for reporter in (5, 9, 2, 7)
] + [(3, subject, 0.0, 0.0, True) for subject in (5, 9, 2, 7)] + [
    (9, 1, 0.0, 0.0, False),
    (3, 9, 1.0, 1.0, True),
]


class TestPerPairTablesMatchReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @example(stream=_EVERY_INSERTION)
    @given(stream=steps)
    def test_report_stream_matches_dict_reference(self, stream):
        assignment = ring_assignment()
        store = ReputationStore(
            assignment=assignment,
            initial_credibility=INITIAL_CREDIBILITY,
            credibility_gain=CREDIBILITY_GAIN,
            opinion_smoothing=OPINION_SMOOTHING,
        )
        reference = ReferenceStore(assignment)
        books: dict[int, OpinionBook] = {}
        reference_books: dict[int, ReferenceOpinions] = {}
        batch: list[FeedbackReport] = []
        for time, (reporter, subject, satisfaction, value, ends_batch) in enumerate(
            stream
        ):
            book = books.setdefault(reporter, OpinionBook(owner=reporter))
            reference_book = reference_books.setdefault(reporter, ReferenceOpinions())
            if subject is None:
                book.clear()
                reference_book.stats.clear()
                continue
            quality = book.record_interaction(subject, satisfaction)
            assert quality == reference_book.record_interaction(subject, satisfaction)
            report = FeedbackReport(
                reporter=reporter,
                subject=subject,
                value=value,
                quality=quality,
                time=float(time),
            )
            batch.append(report)
            reference.submit(report)
            if ends_batch:
                store.submit_report_batch(batch)
                batch = []
        store.submit_report_batch(batch)
        assert_tables_match(
            store,
            reference,
            books,
            {peer: book.stats for peer, book in reference_books.items()},
        )
        # JSON orders the keys as strings ("10" before "9"); restore puts
        # each manager's reporters back in ascending order.
        restored = ReputationStore(assignment=assignment)
        restored.restore_state(json.loads(store.encode_state()))
        assert restored.state_digest() == store.state_digest()
        assert restored.encode_state() == store.encode_state()
        for manager in reference.credibility:
            state = restored.manager_state(manager)
            assert_ascending_and_aligned(
                state.reporters, state.credibility, state.report_counts
            )
