"""The central metrics collector the simulation engine reports into."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.introduction import RefusalReason
from ..peers.peer import Peer
from ..peers.population import Population
from ..reputation.backend import ReputationBackend
from .success_rate import SuccessRateTracker
from .timeseries import TimeSeries

__all__ = ["MetricsCollector"]


@dataclass
class MetricsCollector:
    """Counters and time series describing one simulation run.

    It holds exactly what :meth:`RunSummary.from_run
    <repro.metrics.summary.RunSummary.from_run>` and the detection payload
    read.  Audit outcomes are counted once, in
    :class:`~repro.core.lending.LendingStats`.
    """

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
    decisions: SuccessRateTracker = field(default_factory=SuccessRateTracker)

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

    # ------------------------------------------------------------------ #
    # Sampling                                                              #
    # ------------------------------------------------------------------ #
    def sample(self, time: float, population: Population, store: ReputationBackend) -> None:
        """Take one periodic snapshot of reputations and peer counts.

        The sample reads the reputation of *every* active peer, so this is a
        batch phase: reputations are gathered through the backend's bulk
        ``reputations_for`` (the ROCQ store serves most of them straight from
        its memo cache) and the cooperative partition comes from the
        population's ground-truth flags.  Each partition's sum accumulates
        left-to-right in active order — the exact additions of the historical
        per-peer loop — so the averages stay bit-identical on every Python
        version (the builtin ``sum()`` of floats rounds differently from 3.12).
        """
        active_ids = population.active_ids
        flags = population.active_cooperative_flags()
        values = store.reputations_for(active_ids)
        if self.capture_scores:
            self.score_snapshots.append(
                (
                    float(time),
                    tuple(int(peer_id) for peer_id in active_ids),
                    tuple(float(value) for value in values),
                )
            )
        coop_total = uncoop_total = 0.0
        coop_count = 0
        for value, flag in zip(values, flags):
            if flag:
                coop_total += value
                coop_count += 1
            else:
                uncoop_total += value
        uncoop_count = len(values) - coop_count
        coop_avg = coop_total / coop_count if coop_count else float("nan")
        uncoop_avg = uncoop_total / uncoop_count if uncoop_count else float("nan")
        self.cooperative_reputation.append(time, coop_avg)
        self.uncooperative_reputation.append(time, uncoop_avg)
        self.cooperative_count.append(time, float(coop_count))
        self.uncooperative_count.append(time, float(uncoop_count))
