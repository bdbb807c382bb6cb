"""Adapters that run the log-based baseline systems inside the simulator.

The baseline :class:`~repro.reputation.base.ReputationSystem` implementations
consume a log of rated interactions and produce a score per peer — nothing
more.  The engine, however, speaks the richer
:class:`~repro.reputation.backend.ReputationBackend` protocol: it installs
founder reputations, applies lending debits/credits and sanctions, and asks
for reputations on every transaction.  :class:`LogReputationBackend` bridges
the two:

* feedback reports are folded into the wrapped system's interaction log
  (``value >= 0.5`` counts as a satisfied interaction, matching how the
  simulator's behaviours encode honesty and collusion in report values);
* direct adjustments — which the baseline schemes have no native notion of —
  are tracked as a per-peer **credit ledger** added on top of the scheme's
  own score, so reputation lending remains expressible against any backend;
* ``set_reputation`` pins the *current* total to the requested value by
  solving for the credit, after which the scheme's own dynamics move the
  reputation again;
* expensive schemes refresh their score table every ``refresh_every``
  reports instead of per query (EigenTrust's power iteration, tit-for-tat's
  pairwise scan), trading bounded staleness for per-transaction O(1) cost.

Membership changes are no-ops: the baselines model a centralised log, so
there are no ring-keyed caches to invalidate.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Iterable

from ..errors import PersistenceError
from ..ids import PeerId, sha256
from ..restore_checks import ID_LIMIT, checked_count, checked_id, checked_number
from ..rocq.protocol import FeedbackReport, ReputationAdjustment
from .base import InteractionLog, ReputationSystem

__all__ = ["LogReputationBackend", "native_newcomer_reputation"]


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


def native_newcomer_reputation(base, scheme: str) -> float:
    """What ``scheme`` itself would grant a complete stranger.

    Builds a throwaway backend for ``scheme`` from ``base`` (a
    :class:`~repro.config.SimulationParameters`) and asks it for its
    newcomer reputation.  Used by the cross-scheme experiments to run each
    baseline under open admission at *its own* bootstrap score, so the
    paper's §1 taxonomy is reproduced by the schemes rather than by
    construction.  Only meaningful for the log-based baselines: ``rocq``
    replicates across score managers and is rejected by its factory when no
    assignment is supplied.
    """
    from .backend import make_reputation_backend

    probe = base.with_overrides(reputation_scheme=scheme)
    return make_reputation_backend(probe, assignment=None).newcomer_reputation()


class LogReputationBackend:
    """A :class:`ReputationSystem` adapted to the ``ReputationBackend`` protocol.

    Parameters
    ----------
    system:
        The wrapped baseline reputation system.
    scheme:
        Registry name reported to callers (defaults to ``system.name``).
    refresh_every:
        Recompute the cached score table after this many reports.  ``1``
        selects the *live* path: scores are computed on demand straight from
        the system, which is the right choice for systems whose per-peer
        score is O(1).
    """

    def __init__(
        self,
        system: ReputationSystem,
        scheme: str | None = None,
        refresh_every: int = 1,
    ) -> None:
        if refresh_every < 1:
            raise ValueError("refresh_every must be >= 1")
        self.system = system
        self.scheme = scheme if scheme is not None else system.name
        self.refresh_every = refresh_every
        self._credit: dict[PeerId, float] = {}
        self._table: dict[PeerId, float] = {}
        self._reports_since_refresh = 0
        # The score of a peer absent from the log never depends on the log's
        # contents for any of the shipped systems, so it is computed once.
        self._newcomer = _clamp(system.newcomer_score())
        self.reports_delivered = 0
        self.adjustments_delivered = 0

    # ------------------------------------------------------------------ #
    # Scores                                                               #
    # ------------------------------------------------------------------ #
    def _base_score(self, subject: PeerId) -> float:
        """The wrapped system's own score for ``subject`` (possibly cached)."""
        if self.refresh_every == 1:
            if subject in self.system.log.peers:
                return self.system.score(subject)
            return self._newcomer
        if self._reports_since_refresh >= self.refresh_every:
            self._table = self.system.score_table()
            self._reports_since_refresh = 0
        return self._table.get(subject, self._newcomer)

    def global_reputation(self, subject: PeerId) -> float:
        """Scheme score plus the adjustment credit, clamped to [0, 1]."""
        return _clamp(self._base_score(subject) + self._credit.get(subject, 0.0))

    def newcomer_reputation(self) -> float:
        """The scheme's bootstrap score for a complete stranger."""
        return self._newcomer

    def reputations_for(self, subjects: Iterable[PeerId]) -> list[float]:
        """:meth:`global_reputation` of each subject, queried in input order."""
        return [self.global_reputation(subject) for subject in subjects]

    # ------------------------------------------------------------------ #
    # Updates                                                              #
    # ------------------------------------------------------------------ #
    def submit_report(self, report: FeedbackReport) -> float:
        """Fold the report into the wrapped system's interaction log."""
        self.system.record_interaction(
            report.reporter, report.subject, satisfied=report.value >= 0.5
        )
        self.reports_delivered += 1
        self._reports_since_refresh += 1
        return self.global_reputation(report.subject)

    def submit_report_batch(self, reports: Iterable[FeedbackReport]) -> None:
        """Deliver a batch of reports, in order.

        A centralised log has no per-manager fan-out to coalesce, and
        :meth:`submit_report` deliberately queries the subject's reputation
        afterwards — the query is what advances the ``refresh_every``
        staleness clock.  The batch hook therefore submits sequentially, so
        score-table refreshes land on exactly the same report as before.
        """
        for report in reports:
            self.submit_report(report)

    def apply_adjustment(self, adjustment: ReputationAdjustment) -> float:
        """Move the subject's credit; return the delta actually applied.

        Like the ROCQ store, the applied amount respects the [0, 1] range of
        the *total* reputation: a debit cannot push it below zero and a
        credit cannot push it above one.  The stored credit is re-solved
        against the current base score (not merely incremented), so no
        hidden surplus survives the clamp — immediately after the call the
        total equals the clamped target exactly.
        """
        base = self._base_score(adjustment.subject)
        before = _clamp(base + self._credit.get(adjustment.subject, 0.0))
        target = _clamp(before + adjustment.delta)
        self._credit[adjustment.subject] = target - base
        self.adjustments_delivered += 1
        return target - before

    def set_reputation(self, subject: PeerId, value: float, time: float = 0.0) -> None:
        """Pin the current total to ``value`` by solving for the credit."""
        self._credit[subject] = value - self._base_score(subject)

    # ------------------------------------------------------------------ #
    # Membership (no replicas to maintain)                                 #
    # ------------------------------------------------------------------ #
    def membership_changed(self, change: object | None = None) -> None:
        """A centralised log has no ring-keyed caches — nothing to evict."""
        return None

    # ------------------------------------------------------------------ #
    # State digest (trace divergence bisection)                            #
    # ------------------------------------------------------------------ #
    def state_digest(self) -> str:
        """Deterministic digest of the interaction log and credit ledger.

        Zero-count log entries (artefacts of :class:`defaultdict` reads)
        are skipped so the digest reflects recorded interactions only.
        """
        parts = sha256()
        for subject in sorted(self._credit):
            parts.update(f"|k{subject}:{self._credit[subject]!r}".encode("ascii"))
        log = self.system.log
        for side, counters in (("p", log.positive), ("n", log.negative)):
            for key in sorted(counters):
                count = counters[key]
                if count:
                    parts.update(f"|{side}{key!r}:{count}".encode("ascii"))
        parts.update(
            f"|r{self.reports_delivered}a{self.adjustments_delivered}"
            f"s{self._reports_since_refresh}".encode("ascii")
        )
        return parts.hexdigest()

    # ------------------------------------------------------------------ #
    # Durable persistence (repro.storage)                                  #
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict[str, Any]:
        """JSON-serialisable snapshot covering everything :meth:`state_digest`
        hashes.

        JSON floats round-trip exactly (serialised via ``repr``, parsed via
        ``float``), so a save → load → :meth:`restore_state` cycle
        reproduces the digest bit-for-bit.  Zero-count log entries —
        :class:`~collections.defaultdict` read artefacts that the digest
        already skips — are dropped here too.
        """
        log = self.system.log
        positive = [
            [int(reporter), int(subject), int(count)]
            for (reporter, subject), count in sorted(log.positive.items())
            if count
        ]
        negative = [
            [int(reporter), int(subject), int(count)]
            for (reporter, subject), count in sorted(log.negative.items())
            if count
        ]
        return {
            "scheme": self.scheme,
            "positive": positive,
            "negative": negative,
            "peers": sorted(int(peer) for peer in log.peers),
            "credit": {str(peer): value for peer, value in self._credit.items()},
            "table": {str(peer): value for peer, value in self._table.items()},
            "reports_since_refresh": self._reports_since_refresh,
            "reports_delivered": self.reports_delivered,
            "adjustments_delivered": self.adjustments_delivered,
        }

    def encode_state(self) -> str:
        """:meth:`export_state` as the JSON text a checkpoint stores.

        Strict JSON with sorted keys: a non-finite float raises
        ``ValueError``.
        """
        return json.dumps(self.export_state(), sort_keys=True, allow_nan=False)

    def peer_tallies(self) -> dict[PeerId, tuple[int, int]]:
        """``subject -> (reports, adjustments)`` for every peer the state knows.

        The peers are the interaction log's plus everyone with an adjustment
        credit.  ``reports`` counts the times the peer was rated, and
        ``adjustments`` is 1 for a peer with a credit entry, else 0: the
        ledger keeps one net credit per peer, not a count, so six
        adjustments read 1, as does a credit a bootstrap install set.
        """
        log = self.system.log
        reports: dict[PeerId, int] = dict.fromkeys(log.peers, 0)
        for counters in (log.positive, log.negative):
            for (_, subject), count in counters.items():
                if count:
                    reports[subject] = reports.get(subject, 0) + count
        tallies = {subject: (count, 0) for subject, count in reports.items()}
        for subject in self._credit:
            tallies[subject] = (reports.get(subject, 0), 1)
        return tallies

    def restore_state(self, payload: dict[str, Any]) -> None:
        """Rebuild from an :meth:`export_state` payload.

        Must be called on a **freshly constructed** backend.  The interaction
        log is built straight from the stored counts, so restore work follows
        the size of the payload, not the interactions it counts.  A peer id
        that is not an integer below ``2**32`` (a key: not its canonical
        decimal), a count or counter that is not a non-negative integer, or
        a credit or table value that is not finite raises
        :class:`~repro.errors.PersistenceError` naming the entry.
        """
        if (
            self.system.log.peers
            or self._credit
            or self.reports_delivered
            or self.adjustments_delivered
        ):
            raise PersistenceError(
                f"cannot restore scheme {self.scheme!r} state into a backend "
                "that has already processed reports or adjustments"
            )
        # Peers can be known without appearing in any counter (e.g. every
        # report about them was later zeroed out), hence the explicit list.
        peers = {
            checked_count(peer, "a peer in the peers list", ID_LIMIT)
            for peer in _section(payload, "peers", list)
        }
        positive = _checked_counts(payload, "positive", peers)
        negative = _checked_counts(payload, "negative", peers)
        self.system.log = InteractionLog(
            positive=positive, negative=negative, peers=peers
        )
        self._credit = _checked_scores(payload, "credit")
        self._table = _checked_scores(payload, "table")
        self._reports_since_refresh = _checked_counter(payload, "reports_since_refresh")
        self.reports_delivered = _checked_counter(payload, "reports_delivered")
        self.adjustments_delivered = _checked_counter(payload, "adjustments_delivered")


def _section(payload: dict[str, Any], name: str, kind: type) -> Any:
    """``payload[name]``, empty when absent; it must be a ``kind``."""
    section = payload.get(name, kind())
    if not isinstance(section, kind):
        raise PersistenceError(f"the {name} of the snapshot is not a {kind.__name__}")
    return section


def _checked_counts(
    payload: dict[str, Any], side: str, peers: set[PeerId]
) -> defaultdict[tuple[PeerId, PeerId], int]:
    """One side's ``[reporter, subject, count]`` entries as pairwise counts.

    Adds each id with a non-zero count to ``peers``.
    """
    counts: defaultdict[tuple[PeerId, PeerId], int] = defaultdict(int)
    for entry in _section(payload, side, list):
        if not isinstance(entry, list) or len(entry) != 3:
            raise PersistenceError(
                f"the {side} counts hold an entry that is not "
                f"[reporter, subject, count]: {entry!r}"
            )
        where = f"the {side} count of pair ({entry[0]!r}, {entry[1]!r})"
        reporter = checked_count(entry[0], f"the reporter in {where}", ID_LIMIT)
        subject = checked_count(entry[1], f"the subject in {where}", ID_LIMIT)
        count = checked_count(entry[2], where)
        if count:
            counts[(reporter, subject)] += count
            peers.add(reporter)
            peers.add(subject)
    return counts


def _checked_counter(payload: dict[str, Any], name: str) -> int:
    """One of the backend's delivery counters (0 when absent)."""
    return checked_count(payload.get(name, 0), f"the counter {name!r}")


def _checked_scores(payload: dict[str, Any], name: str) -> dict[PeerId, float]:
    """The ``credit`` or ``table`` object: canonical peer keys, finite values."""
    return {
        checked_id(key, f"the {name}"): checked_number(
            value, f"the {name} of peer {key}"
        )
        for key, value in _section(payload, name, dict).items()
    }
