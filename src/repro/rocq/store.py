"""The replicated reputation store.

:class:`ReputationStore` is the facade the rest of the library talks to.  It
combines the overlay's score-manager assignment with the per-manager
:class:`~repro.rocq.score_manager.ScoreManager` records, and it is the one
place ROCQ's update rule is written:

* ``global_reputation(subject)`` — query the subject's current managers and
  combine their stored values by their mean, which is what a peer obtains
  when it "asks for the reputation of the requesting peer" before a
  transaction;
* ``submit_report_batch(reports)`` — deliver feedback reports to every
  manager of each subject, weighting each by the reporter's credibility and
  the opinion's quality, then moving the reporter's credibility;
* ``apply_adjustment(adjustment)`` — deliver a lending-protocol adjustment to
  every manager of the subject and return the mean amount actually applied;
* ``set_reputation(subject, value)`` — install a founder's reputation.

Records are not migrated when a score manager departs: its replicas are
simply no longer consulted, and a manager that inherits a subject adopts the
first report it receives about it (the "first evidence" rule of
:meth:`ReputationStore.submit_report_batch`).

Manager lists are cached per *tracked* subject, and the cache follows churn
the way Chord moves keys: a join or leave at node ``k`` only moves the
replica keys in the arc ``(predecessor, k]``.  The store keeps, for every
ring node, the tracked replicas whose first candidate it is (an ownership
index), so a single join/leave — delivered as a
:class:`~repro.overlay.membership.MembershipChange` via
:meth:`ReputationStore.membership_changed` — hands exactly the entries of
the changed arc to their new owner and recomputes the managers of the few
subjects they belong to, without a ring lookup.  Each subject is resolved
against the ring once, when it is first tracked.  ``invalidate_assignments``
(the blanket clear) is what a ``None`` change degrades to.

The ownership index holds one ``array('Q')`` per ring node, not one tuple
per replica: an entry packs a replica as ``subject << bits | replica_index``,
where ``bits`` is the width of the largest replica index,
``(num_score_managers - 1).bit_length()``.  Subjects are peer ids below
``2**32`` (the width of every id array), so an entry fits in 64 bits for any
replica count up to ``2**32``.  The replica key a join's arc test needs is
read from the assignment's memo of replica keys.

On top of the assignment cache sits a **combined-reputation cache**: the
clamped mean ``global_reputation`` computes per subject is memoised and
invalidated whenever anything that feeds it changes — a report or
adjustment about the subject, a bootstrap install, or a membership change
that alters its manager list.  Periodic metric samples read the reputation
of *every* active peer, so between two samples the overwhelming majority of
subjects are untouched and served from this cache.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Collection, Iterable

from ..ids import PeerId, sha256
from ..overlay.assignment import ScoreManagerAssignment
from ..overlay.membership import MembershipChange
from ..restore_checks import (
    ID_LIMIT,
    checked_count,
    checked_fields,
    checked_id,
    checked_number,
)
from .protocol import FeedbackReport, ReputationAdjustment
from .score_manager import ReputationRecord, ScoreManager

__all__ = ["ReputationStore"]

@dataclass
class ReputationStore:
    """Replicated, manager-assigned reputation storage for the whole system.

    This is the ``rocq`` entry of the pluggable backend registry
    (:mod:`repro.reputation.backend`) and the reference implementation of the
    ``ReputationBackend`` protocol.
    """

    #: Registry name of this backend (class attribute, not a dataclass field).
    scheme = "rocq"

    assignment: ScoreManagerAssignment
    #: Credibility of a reporter a manager has not heard from yet.
    initial_credibility: float = 0.5
    #: Learning rate of the credibility update.
    credibility_gain: float = 0.1
    #: Step size of a report with full credibility and quality.
    opinion_smoothing: float = 0.3
    use_credibility: bool = True
    use_quality: bool = True
    default_reputation: float = 0.0
    _managers: dict[PeerId, ScoreManager] = field(default_factory=dict)
    #: Tracked subject -> its deduplicated managers.  A subject is tracked
    #: from its first ``managers_for`` on a non-empty ring until
    #: ``invalidate_assignments`` or ``restore_state`` (while the ring is
    #: empty its list is empty).
    _assignment_cache: dict[PeerId, list[PeerId]] = field(default_factory=dict)
    #: Tracked subject -> the ring key of each replica's first candidate, in
    #: replica order.
    _firsts: dict[PeerId, list[int]] = field(default_factory=dict, repr=False)
    #: Ring key -> the replicas of tracked subjects whose first candidate is
    #: the node at that key, packed by :meth:`_index`; never empty.
    _owned: dict[int, array] = field(default_factory=dict, repr=False)
    #: Memoised combined reputation per subject.  Entries exist only for
    #: tracked subjects (so every membership change that alters a manager
    #: list also drops the combined value) and are popped by every write
    #: that can move the underlying replica values.
    _reputation_cache: dict[PeerId, float] = field(default_factory=dict, repr=False)
    reports_delivered: int = 0
    adjustments_delivered: int = 0
    #: Cache-coherency telemetry (exposed for benchmarks and tests).
    #: Calls of ``invalidate_assignments``, including ``membership_changed(None)``.
    full_invalidations: int = 0
    #: Tracked subjects whose manager list a membership change altered.
    targeted_evictions: int = 0
    #: Subjects a membership change touched whose manager list stayed the
    #: same, so their memoised combined reputation was kept.
    targeted_patches: int = 0

    # ------------------------------------------------------------------ #
    # Manager plumbing                                                     #
    # ------------------------------------------------------------------ #
    def manager_state(self, manager_id: PeerId) -> ScoreManager:
        """Return (creating if needed) the state held by ``manager_id``."""
        state = self._managers.get(manager_id)
        if state is None:
            state = ScoreManager()
            self._managers[manager_id] = state
        return state

    def managers_for(self, subject: PeerId) -> list[PeerId]:
        """Current score managers of ``subject`` (cached).

        The first call on a non-empty ring resolves the subject against the
        ring and starts tracking it; membership changes keep its entry
        current from then on.
        """
        managers = self._assignment_cache.get(subject)
        if managers is None:
            managers, first_keys = self.assignment.assignment_details(subject)
            # An empty ring yields an empty assignment with no first
            # candidates to index, so the subject is not tracked.
            if first_keys:
                self._assignment_cache[subject] = managers
                self._firsts[subject] = first_keys
                self._index(subject, first_keys)
        return managers

    def _index_bits(self) -> int:
        """Bits of an ownership entry that hold the replica index."""
        return (self.assignment.num_score_managers - 1).bit_length()

    def _index(self, subject: PeerId, first_keys: list[int]) -> None:
        """File each of ``subject``'s replicas under its first candidate.

        Replica ``i`` is filed as the entry ``subject << bits | i``.
        """
        owned = self._owned
        entry = subject << self._index_bits()
        for first_key in first_keys:
            bucket = owned.get(first_key)
            if bucket is None:
                owned[first_key] = array("Q", (entry,))
            else:
                bucket.append(entry)
            entry += 1

    def invalidate_assignments(self) -> None:
        """Drop the whole assignment cache (what a ``None`` change means)."""
        self._assignment_cache.clear()
        self._firsts.clear()
        self._owned.clear()
        self._reputation_cache.clear()
        self.full_invalidations += 1

    def membership_changed(self, change: MembershipChange | None) -> None:
        """Hand the replica keys of the changed arc to their new first candidate.

        The keys move as in Chord (see :meth:`_hand_over`), and the managers
        of the subjects they belong to are recomputed from their first
        candidates, without a ring lookup.  A subject's memoised combined
        reputation is dropped only when its manager list changed.

        On rings of fewer than three nodes the changed node's neighbours
        coincide, so every tracked subject is re-resolved in place instead.
        """
        if change is None:
            self.invalidate_assignments()
            return
        firsts = self._firsts
        if change.ring_size < 3:
            resolve = self.assignment.assignment_details
            self._owned.clear()
            for subject in firsts:
                first_keys = resolve(subject)[1]
                firsts[subject] = first_keys
                self._index(subject, first_keys)
            touched: Collection[PeerId] = firsts.keys()
        else:
            touched = self._hand_over(change)
        managers_from_firsts = self.assignment.managers_from_firsts
        cache = self._assignment_cache
        evicted = 0
        for subject in touched:
            managers = managers_from_firsts(subject, firsts[subject])
            if managers != cache[subject]:
                cache[subject] = managers
                self._reputation_cache.pop(subject, None)
                evicted += 1
        self.targeted_evictions += evicted
        self.targeted_patches += len(touched) - evicted

    def _hand_over(self, change: MembershipChange) -> set[PeerId]:
        """Move the index entries of the changed arc; return the touched subjects.

        A join of node ``k`` between ``pred`` and ``succ`` moves the entries
        of ``succ`` whose replica key lies in ``(pred, k]`` to ``k``, and a
        leave of ``k`` hands all of ``k``'s entries to ``succ``; no other
        key changes hands.  Besides the subjects of the moved entries, one
        more assignment can change: ``pred``'s successor changed, and it
        manages any replica first held by ``pred`` whose subject is
        ``pred``'s own peer (self-exclusion).  Needs a ring of at least
        three nodes, so that ``pred`` and ``succ`` differ.
        """
        owned = self._owned
        firsts = self._firsts
        node_key = change.node_key
        pred_key = change.predecessor_key
        bits = self._index_bits()
        mask = (1 << bits) - 1
        moved: Collection[int]
        if change.is_leave:
            new_owner = change.successor_key
            moved = owned.pop(node_key, ())
            if moved:
                owned.setdefault(new_owner, array("Q")).extend(moved)
        else:
            new_owner = node_key
            successor_key = change.successor_key
            moved = ()
            bucket = owned.get(successor_key)
            if bucket:
                replica_keys_for = self.assignment.replica_keys_for
                # The clockwise arc ``(pred, k]`` wraps past zero when
                # ``pred > k``.  Ring and replica keys are canonical.
                wraps = pred_key > node_key
                moved = array("Q")
                kept = array("Q")
                for entry in bucket:
                    key = replica_keys_for(entry >> bits)[entry & mask]
                    if wraps:
                        in_arc = key > pred_key or key <= node_key
                    else:
                        in_arc = pred_key < key <= node_key
                    (moved if in_arc else kept).append(entry)
                if moved:
                    owned[node_key] = moved
                    if kept:
                        owned[successor_key] = kept
                    else:
                        del owned[successor_key]
        touched: set[PeerId] = set()
        for entry in moved:
            subject = entry >> bits
            firsts[subject][entry & mask] = new_owner
            touched.add(subject)
        pred_subject = self.assignment.ring._nodes_by_key[pred_key].peer_id
        pred_firsts = firsts.get(pred_subject)
        if pred_firsts is not None and pred_key in pred_firsts:
            touched.add(pred_subject)
        return touched

    # ------------------------------------------------------------------ #
    # Queries                                                              #
    # ------------------------------------------------------------------ #
    def global_reputation(self, subject: PeerId) -> float:
        """Combined reputation of ``subject`` across its managers.

        Managers that have never heard of the subject are skipped; if no
        manager has a record the configured default (0 for new entrants, per
        the paper's bootstrap rule) is returned.  The combined value is
        memoised until a write, or a membership change that alters its
        manager list, touches the subject.
        """
        cached = self._reputation_cache.get(subject)
        if cached is not None:
            return cached
        managers_get = self._managers.get
        total = 0.0
        count = 0
        for manager_id in self.managers_for(subject):
            state = managers_get(manager_id)
            if state is None:
                continue
            record = state.records.get(subject)
            if record is not None:
                total += record.value
                count += 1
        if not count:
            result = self.default_reputation
        else:
            result = total / count
        # Only tracked subjects are memoised: membership_changed drops their
        # entry whenever the ring moves their manager list.
        if subject in self._assignment_cache:
            self._reputation_cache[subject] = result
        return result

    def reputations_for(self, subjects: Iterable[PeerId]) -> list[float]:
        """Combined reputations of many subjects, aligned with the input.

        The bulk form of :meth:`global_reputation` the metrics sampler calls
        once per sample: between two samples the overwhelming majority of
        subjects are untouched, so most answers come straight out of the memo
        dict without a method call.
        """
        cache_get = self._reputation_cache.get
        global_reputation = self.global_reputation
        out: list[float] = []
        append = out.append
        for subject in subjects:
            cached = cache_get(subject)
            append(cached if cached is not None else global_reputation(subject))
        return out

    def newcomer_reputation(self) -> float:
        """Reputation of a peer with no record anywhere (the paper's 0)."""
        return self.default_reputation

    # ------------------------------------------------------------------ #
    # Updates                                                              #
    # ------------------------------------------------------------------ #
    def submit_report(self, report: FeedbackReport) -> float:
        """Deliver ``report`` to every manager of the subject; return new mean."""
        self.submit_report_batch((report,))
        return self.global_reputation(report.subject)

    def submit_report_batch(self, reports: Iterable[FeedbackReport]) -> None:
        """Deliver the reports of one event dispatch, in submission order.

        Every manager of a report's subject folds the report into its record
        for the subject.  The step size is the report's *weight*: the
        opinion smoothing, times the reporter's credibility at that manager
        and the opinion's quality (floored at 0.05), clamped to ``[0, 1]``,
        so low-credibility or low-quality reports barely move the value.
        A reporter the manager has not heard from yet counts with
        ``initial_credibility``.  The manager then moves the reporter's
        credibility towards its agreement ``1 - |report - new value|`` with
        learning rate ``credibility_gain``, so credibility is an
        exponentially weighted estimate of the reporter's historical
        accuracy.

        Both partners of a transaction report on each other fire-and-forget,
        so no per-report combined mean is returned.  Delivery instead
        *pre-warms* the combined-reputation memo: after a report reaches
        every manager of the subject, the per-manager values added up along
        the way are — in the same order — exactly the total
        :meth:`global_reputation` would rebuild on its next miss, so the mean
        is computed here once (with the identical additions) and the
        subsequent serve-probability query and metrics sample hit the memo.
        """
        delivered = 0
        reputation_pop = self._reputation_cache.pop
        reputation_cache = self._reputation_cache
        managers_get = self._managers.get
        assignment_get = self._assignment_cache.get
        managers_for = self.managers_for
        smoothing = self.opinion_smoothing
        use_credibility = self.use_credibility
        use_quality = self.use_quality
        initial_cred = self.initial_credibility
        gain = self.credibility_gain
        bisect = bisect_left
        for report in reports:
            subject = report.subject
            reputation_pop(subject, None)
            reporter = report.reporter
            report_value = report.value
            quality = report.quality
            quality = quality if quality > 0.05 else 0.05
            report_time = report.time
            total = 0.0
            managers = assignment_get(subject)
            if managers is None:
                managers = managers_for(subject)
            for manager_id in managers:
                state = managers_get(manager_id)
                if state is None:
                    state = self.manager_state(manager_id)
                records = state.records
                record = records.get(subject)
                if record is None:
                    record = ReputationRecord()
                    records[subject] = record
                cred_values = state.credibility
                reporters = state.reporters
                index = bisect(reporters, reporter)
                known = index != len(reporters) and reporters[index] == reporter
                cred = cred_values[index] if known else initial_cred
                weight = smoothing
                if use_credibility:
                    weight *= cred
                if use_quality:
                    weight *= quality
                if weight > 1.0:
                    weight = 1.0
                elif weight < 0.0:
                    weight = 0.0
                if record.reports == 0 and record.adjustments == 0 and not record.seeded:
                    # First evidence about a subject this manager has no prior
                    # for (a brand-new replica, typically created when
                    # score-manager responsibility shifted onto this node
                    # after churn): adopt the reported value outright.
                    # Averaging across the other replicas and subsequent
                    # reports smooths out a dishonest first report.
                    value = report_value
                else:
                    value = (1.0 - weight) * record.value + weight * report_value
                if value < 0.0:
                    value = 0.0
                elif value > 1.0:
                    value = 1.0
                record.value = value
                record.reports += 1
                record.last_update = report_time
                # Credibility moves against the post-update value, so a lone
                # honest report about an unknown subject is not
                # self-penalising.  The report and the value both lie in
                # [0, 1], so the agreement does too.
                agreement = 1.0 - abs(report_value - value)
                cred = (1.0 - gain) * cred + gain * agreement
                if known:
                    cred_values[index] = cred
                    state.report_counts[index] += 1
                else:
                    reporters.insert(index, reporter)
                    cred_values.insert(index, cred)
                    state.report_counts.insert(index, 1)
                total += value
            count = len(managers)
            delivered += count
            if count:
                # Same additions, same value order as global_reputation —
                # the memoised result is bit-identical to a recompute.  (A
                # non-empty manager list implies the assignment was cached
                # by managers_for, which is the memo's invariant.)
                reputation_cache[subject] = total / count
        self.reports_delivered += delivered

    def apply_adjustment(self, adjustment: ReputationAdjustment) -> float:
        """Deliver a direct adjustment to every manager; return mean applied.

        Each manager adds ``delta`` to its record, clamped to ``[0, 1]``, so
        crediting a peer already at 1.0 applies nothing and debiting a peer
        at 0.05 by 0.1 only applies 0.05; callers that need symmetric
        settlement (the lending audit) use the returned amount.

        Like the batched report path, delivery pre-warms the combined-
        reputation memo: each manager's post-adjustment value is added up in
        manager order, as :meth:`global_reputation` adds them, so the lending
        protocol's debit/credit pairs do not force a full recompute on the
        subject's next query.
        """
        subject = adjustment.subject
        self._reputation_cache.pop(subject, None)
        applied = 0.0
        total = 0.0
        managers = self._assignment_cache.get(subject)
        if managers is None:
            managers = self.managers_for(subject)
        managers_get = self._managers.get
        delta = adjustment.delta
        adjustment_time = adjustment.time
        delivered = 0
        for manager_id in managers:
            state = managers_get(manager_id)
            if state is None:
                state = self.manager_state(manager_id)
            records = state.records
            record = records.get(subject)
            if record is None:
                record = ReputationRecord()
                records[subject] = record
            before = record.value
            value = before + delta
            if value < 0.0:
                value = 0.0
            elif value > 1.0:
                value = 1.0
            record.value = value
            record.adjustments += 1
            record.last_update = adjustment_time
            applied += value - before
            total += value
            delivered += 1
        self.adjustments_delivered += delivered
        if not delivered:
            return 0.0
        if subject in self._assignment_cache:
            self._reputation_cache[subject] = total / delivered
        return applied / delivered

    def set_reputation(self, subject: PeerId, value: float, time: float = 0.0) -> None:
        """Set the stored reputation at every current manager (bootstrap)."""
        self._reputation_cache.pop(subject, None)
        if value < 0.0:
            value = 0.0
        elif value > 1.0:
            value = 1.0
        for manager_id in self.managers_for(subject):
            records = self.manager_state(manager_id).records
            record = records.get(subject)
            if record is None:
                record = ReputationRecord()
                records[subject] = record
            record.value = value
            record.last_update = time
            record.seeded = True

    # ------------------------------------------------------------------ #
    # State digest (trace divergence bisection)                            #
    # ------------------------------------------------------------------ #
    def state_digest(self) -> str:
        """Deterministic digest of every manager's records and credibility.

        Iteration is over *sorted* manager, subject and reporter ids, so the
        digest is independent of dict insertion order; the assignment cache
        is derived state and deliberately excluded.  Each manager's text is
        hashed in one ``update``: the builtin SHA-256 pays more per call
        than OpenSSL's, and the bytes are the same either way.
        """
        parts = sha256()
        for manager_id in sorted(self._managers):
            state = self._managers[manager_id]
            records = state.records
            text = [f"m{manager_id}"]
            text.extend(
                f"|{subject}:{records[subject].snapshot()!r}"
                for subject in sorted(records)
            )
            text.extend(
                f"|c{reporter}:{value!r}:{reports}"
                for reporter, value, reports in zip(
                    state.reporters, state.credibility, state.report_counts
                )
            )
            parts.update("".join(text).encode("utf-8"))
        parts.update(
            f"|r{self.reports_delivered}a{self.adjustments_delivered}".encode("ascii")
        )
        return parts.hexdigest()

    # ------------------------------------------------------------------ #
    # Durable persistence (repro.storage)                                  #
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict[str, Any]:
        """JSON-serialisable snapshot covering everything :meth:`state_digest`
        hashes: every manager's record snapshots and credibility records,
        plus the delivery counters.

        Dict keys are stringified (JSON object keys are always strings);
        :meth:`restore_state` parses them back to ints.  Floats round-trip
        exactly through JSON, so a save → load → restore cycle reproduces
        the digest bit-for-bit.  Caches, telemetry counters and the
        assignment are derived/configured state and are excluded, exactly as
        they are from the digest.
        """
        managers = self._managers
        return {
            "scheme": self.scheme,
            "managers": {
                str(manager_id): _export_manager(managers[manager_id])
                for manager_id in sorted(managers)
            },
            "reports_delivered": self.reports_delivered,
            "adjustments_delivered": self.adjustments_delivered,
        }

    def encode_state(self) -> str:
        """:meth:`export_state` as the JSON text a checkpoint stores.

        The text equals ``json.dumps(self.export_state(), sort_keys=True,
        allow_nan=False)`` byte for byte, but only one manager's snapshot
        exists at a time: each is encoded on its own, in the order
        ``sort_keys`` puts the managers (the string order of their ids), and
        the pieces are joined once.  A non-finite float raises
        ``ValueError``, as ``json.dumps`` does.
        """
        managers = self._managers
        # export_state()'s four keys, in the order sort_keys emits them.
        pieces = [
            '{"adjustments_delivered": ',
            json.dumps(self.adjustments_delivered),
            ', "managers": {',
        ]
        separator = ""
        for manager_id in sorted(managers, key=str):
            pieces += (
                f'{separator}"{manager_id}": ',
                json.dumps(
                    _export_manager(managers[manager_id]),
                    sort_keys=True,
                    allow_nan=False,
                ),
            )
            separator = ", "
        pieces += (
            '}, "reports_delivered": ',
            json.dumps(self.reports_delivered),
            ', "scheme": ',
            json.dumps(self.scheme),
            "}",
        )
        return "".join(pieces)

    def peer_tallies(self) -> dict[PeerId, tuple[int, int]]:
        """``subject -> (reports, adjustments)`` over every manager's record.

        Every subject some manager holds a record for, with its report and
        adjustment counts summed over the replicas: one delivered report or
        adjustment counts once per score manager that received it.
        """
        tallies: dict[PeerId, tuple[int, int]] = {}
        for state in self._managers.values():
            for subject, record in state.records.items():
                reports, adjustments = tallies.get(subject, (0, 0))
                tallies[subject] = (
                    reports + record.reports,
                    adjustments + record.adjustments,
                )
        return tallies

    def restore_state(self, payload: dict[str, Any]) -> None:
        """Rebuild manager state from an :meth:`export_state` payload.

        Replaces whatever the store currently holds: existing managers and
        every derived cache (assignment, ownership index, combined-reputation
        memo) are dropped, then the managers' records are rebuilt.  The
        assignment itself is construction-time configuration and is *not*
        part of the snapshot — the caller is responsible for constructing
        the store against the same overlay it was saved under.

        The payload comes from a durable store, so a manager, subject or
        reporter key other than ``str(peer_id)`` of an id below ``2**32``, or
        a record or credibility entry of the wrong shape, raises
        :class:`~repro.errors.PersistenceError` naming the manager and the
        key.  Distinct canonical keys name distinct ids.
        """
        self._managers.clear()
        self._assignment_cache.clear()
        self._firsts.clear()
        self._owned.clear()
        self._reputation_cache.clear()
        for manager_key, manager_payload in payload.get("managers", {}).items():
            manager = checked_id(manager_key, "the managers")
            state = self.manager_state(manager)
            where = f"the records of manager {manager}"
            for subject_key, snapshot in manager_payload.get("records", {}).items():
                subject = checked_id(subject_key, where)
                state.records[subject] = ReputationRecord.from_snapshot(
                    snapshot, f"the record of subject {subject} at manager {manager}"
                )
            where = f"the credibility of manager {manager}"
            for reporter, value, reports in sorted(
                (checked_id(key, where), *_checked_credibility(manager, key, entry))
                for key, entry in manager_payload.get("credibility", {}).items()
            ):
                state.reporters.append(reporter)
                state.credibility.append(value)
                state.report_counts.append(reports)
        self.reports_delivered = checked_count(
            payload.get("reports_delivered", 0), "the reports delivered"
        )
        self.adjustments_delivered = checked_count(
            payload.get("adjustments_delivered", 0), "the adjustments delivered"
        )


def _export_manager(state: ScoreManager) -> dict[str, Any]:
    """One manager's part of :meth:`ReputationStore.export_state`."""
    records = state.records
    return {
        "records": {
            str(subject): records[subject].snapshot() for subject in sorted(records)
        },
        "credibility": {
            str(reporter): {"value": value, "reports": reports}
            for reporter, value, reports in zip(
                state.reporters, state.credibility, state.report_counts
            )
        },
    }


def _checked_credibility(manager: int, reporter: str, entry: Any) -> tuple[float, int]:
    """``(value, reports)`` of one exported credibility entry, validated.

    The value is not range-checked: a store configured with an
    ``initial_credibility`` above 1 exports such values, and must restore
    them.
    """
    where = f"credibility of reporter {reporter} at manager {manager}"
    entry = checked_fields(entry, where, "value", "reports")
    return (
        checked_number(entry["value"], f"the value of {where}"),
        checked_count(entry["reports"], f"the report count of {where}", ID_LIMIT),
    )
