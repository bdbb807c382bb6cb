"""The central metrics collector the simulation engine reports into."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.audit import AuditResult
from ..core.introduction import RefusalReason
from ..peers.peer import Peer
from ..peers.population import Population
from ..reputation.backend import ReputationBackend
from .success_rate import SuccessRateTracker
from .timeseries import TimeSeries

__all__ = ["MetricsCollector"]


@dataclass
class MetricsCollector:
    """Counters and time series describing one simulation run."""

    # Arrivals and admissions ------------------------------------------------
    arrivals_cooperative: int = 0
    arrivals_uncooperative: int = 0
    admitted_cooperative: int = 0
    admitted_uncooperative: int = 0
    #: Refusal counts keyed by reason.
    refusals: dict[RefusalReason, int] = field(default_factory=dict)
    #: Refusal counts keyed by (reason, applicant-is-cooperative).
    refusals_by_type: dict[tuple[RefusalReason, bool], int] = field(default_factory=dict)

    # Transactions ------------------------------------------------------------
    transactions_attempted: int = 0
    transactions_served: int = 0
    transactions_denied: int = 0
    transactions_satisfactory: int = 0
    decisions: SuccessRateTracker = field(default_factory=SuccessRateTracker)

    # Audits -------------------------------------------------------------------
    audits_passed: int = 0
    audits_failed: int = 0

    # Per-peer score snapshots ---------------------------------------------------
    #: When set (the engine turns it on for adversary runs only), every
    #: periodic sample also keeps the raw ``(time, active ids, scores)``
    #: triple it already read — the score histories the detection subsystem
    #: (:mod:`repro.detection`) labels against ground truth.  Off by default,
    #: so plain runs stay byte-identical to the seed engine.
    capture_scores: bool = False
    score_snapshots: list[tuple[float, tuple[int, ...], tuple[float, ...]]] = field(
        default_factory=list
    )

    # Time series ---------------------------------------------------------------
    cooperative_reputation: TimeSeries = field(
        default_factory=lambda: TimeSeries(name="avg_cooperative_reputation")
    )
    uncooperative_reputation: TimeSeries = field(
        default_factory=lambda: TimeSeries(name="avg_uncooperative_reputation")
    )
    cooperative_count: TimeSeries = field(
        default_factory=lambda: TimeSeries(name="cooperative_peers")
    )
    uncooperative_count: TimeSeries = field(
        default_factory=lambda: TimeSeries(name="uncooperative_peers")
    )

    # ------------------------------------------------------------------ #
    # Arrival / admission events                                           #
    # ------------------------------------------------------------------ #
    def record_arrival(self, peer: Peer) -> None:
        """One new peer arrived and will seek admission."""
        if peer.is_cooperative:
            self.arrivals_cooperative += 1
        else:
            self.arrivals_uncooperative += 1

    def record_admission(self, peer: Peer) -> None:
        """One peer was admitted to the community."""
        if peer.is_cooperative:
            self.admitted_cooperative += 1
        else:
            self.admitted_uncooperative += 1

    def record_refusal(self, reason: RefusalReason, peer: Peer) -> None:
        """One peer was refused admission for ``reason``."""
        self.refusals[reason] = self.refusals.get(reason, 0) + 1
        key = (reason, peer.is_cooperative)
        self.refusals_by_type[key] = self.refusals_by_type.get(key, 0) + 1

    def refusal_count(
        self, reason: RefusalReason, cooperative: bool | None = None
    ) -> int:
        """Refusals for ``reason``, optionally filtered by applicant type."""
        if cooperative is None:
            return self.refusals.get(reason, 0)
        return self.refusals_by_type.get((reason, cooperative), 0)

    @property
    def total_refusals(self) -> int:
        """All refusals regardless of reason."""
        return sum(self.refusals.values())

    # ------------------------------------------------------------------ #
    # Transaction events                                                    #
    # ------------------------------------------------------------------ #
    def record_service_decision(
        self,
        requester_cooperative: bool,
        respondent_cooperative: bool,
        served: bool,
    ) -> None:
        """The respondent decided whether to serve the requester."""
        self.transactions_attempted += 1
        if served:
            self.transactions_served += 1
        else:
            self.transactions_denied += 1
        if respondent_cooperative:
            self.decisions.record(requester_cooperative, served)

    def record_transaction_outcome(self, satisfactory: bool) -> None:
        """A served transaction completed with the given outcome."""
        if satisfactory:
            self.transactions_satisfactory += 1

    def record_audit(self, result: AuditResult) -> None:
        """A lending audit settled."""
        if result.passed:
            self.audits_passed += 1
        else:
            self.audits_failed += 1

    # ------------------------------------------------------------------ #
    # Sampling                                                              #
    # ------------------------------------------------------------------ #
    def sample(self, time: float, population: Population, store: ReputationBackend) -> None:
        """Take one periodic snapshot of reputations and peer counts.

        The sample reads the reputation of *every* active peer, so this is a
        batch phase: reputations are gathered through the backend's bulk hook
        when it has one (the ROCQ store serves most of them straight from its
        memo cache) and the cooperative partition comes from the population's
        ground-truth flags.  Each partition's sum accumulates left-to-right
        in active order — the exact additions of the historical per-peer
        loop — so the averages stay bit-identical.
        """
        active_ids = population.active_ids
        flags = population.active_cooperative_flags()
        bulk = getattr(store, "reputations_for", None)
        if bulk is not None:
            values = bulk(active_ids)
        else:
            reputation_of = store.global_reputation
            values = [reputation_of(peer_id) for peer_id in active_ids]
        if self.capture_scores:
            self.score_snapshots.append(
                (
                    float(time),
                    tuple(int(peer_id) for peer_id in active_ids),
                    tuple(float(value) for value in values),
                )
            )
        coop_values: list[float] = []
        uncoop_values: list[float] = []
        coop_append = coop_values.append
        uncoop_append = uncoop_values.append
        for value, flag in zip(values, flags):
            if flag:
                coop_append(value)
            else:
                uncoop_append(value)
        coop_count = len(coop_values)
        uncoop_count = len(uncoop_values)
        coop_avg = sum(coop_values) / coop_count if coop_count else float("nan")
        uncoop_avg = sum(uncoop_values) / uncoop_count if uncoop_count else float("nan")
        self.cooperative_reputation.append(time, coop_avg)
        self.uncooperative_reputation.append(time, uncoop_avg)
        self.cooperative_count.append(time, float(coop_count))
        self.uncooperative_count.append(time, float(uncoop_count))

    # ------------------------------------------------------------------ #
    # Export                                                                #
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable snapshot of every counter and series."""
        return {
            "arrivals_cooperative": self.arrivals_cooperative,
            "arrivals_uncooperative": self.arrivals_uncooperative,
            "admitted_cooperative": self.admitted_cooperative,
            "admitted_uncooperative": self.admitted_uncooperative,
            "refusals": {reason.value: count for reason, count in self.refusals.items()},
            "refusals_by_type": {
                f"{reason.value}:{'coop' if coop else 'uncoop'}": count
                for (reason, coop), count in self.refusals_by_type.items()
            },
            "transactions_attempted": self.transactions_attempted,
            "transactions_served": self.transactions_served,
            "transactions_denied": self.transactions_denied,
            "transactions_satisfactory": self.transactions_satisfactory,
            "decisions": self.decisions.to_dict(),
            "audits_passed": self.audits_passed,
            "audits_failed": self.audits_failed,
            "cooperative_reputation": self.cooperative_reputation.to_dict(),
            "uncooperative_reputation": self.uncooperative_reputation.to_dict(),
            "cooperative_count": self.cooperative_count.to_dict(),
            "uncooperative_count": self.uncooperative_count.to_dict(),
        }
