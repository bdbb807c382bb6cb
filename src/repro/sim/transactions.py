"""One resource transaction.

§3 defines the transaction model precisely:

* the **requester** is "chosen at random from the list of peers in the
  system";
* the **respondent** is "chosen according to the network topology";
* the respondent serves the request "with a probability that is equal to the
  requesting peer's reputation" — this is the decision the success-rate
  metric judges;
* if served, "both parties involved in the transaction report their level of
  satisfaction to the score managers of its transaction partners": 1 if
  satisfied, 0 if not, and "an uncooperative peer would always send a value
  of 0 for its partners in order to reduce the impact on its own reputation".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SimulationParameters
from ..core.lending import LendingManager
from ..ids import PeerId
from ..metrics.collector import MetricsCollector
from ..peers.peer import Peer
from ..peers.population import Population
from ..reputation.backend import ReputationBackend
from ..rng import Stream
from ..rocq.protocol import FeedbackReport
from ..topology.base import TopologyModel

__all__ = ["TransactionOutcome", "TransactionEngine"]


# Not frozen: a frozen dataclass's ``__init__`` sets each field through
# ``object.__setattr__``, several times the cost of a plain one, and one
# outcome is built per simulated time unit.
@dataclass(slots=True)
class TransactionOutcome:
    """Everything that happened in one transaction (or attempted transaction)."""

    time: float
    requester: PeerId
    respondent: PeerId
    served: bool
    requester_satisfied: bool = False
    respondent_satisfied: bool = False


@dataclass
class TransactionEngine:
    """Executes transactions against the population, topology and reputation backend."""

    params: SimulationParameters
    population: Population
    topology: TopologyModel
    store: ReputationBackend
    lending: LendingManager
    metrics: MetricsCollector
    rng: Stream

    def __post_init__(self) -> None:
        # Bound methods and the peer map, hoisted once: `execute` runs once
        # per simulated time unit, and these lookups dominated its own cost.
        self._peers = self.population._peers
        self._active_ids = self.population._active_ids
        self._rng_integers = self.rng.integers
        self._rng_random = self.rng.random
        self._sample_respondent = self.topology.sample_respondent
        self._global_reputation = self.store.global_reputation
        self._submit_batch = self.store.submit_report_batch
        self._record_decision = self.metrics.record_service_decision
        self._note_transaction = self.lending.note_transaction

    # ------------------------------------------------------------------ #
    # Main entry point                                                      #
    # ------------------------------------------------------------------ #
    def execute(self, time: float) -> TransactionOutcome | None:
        """Run the transaction scheduled for ``time``.

        Returns ``None`` when no transaction can take place (fewer than two
        members, or no respondent for the requester), otherwise the
        :class:`TransactionOutcome`, served or denied, that the engine hands
        to its tracers.
        """
        active_ids = self._active_ids
        if len(active_ids) < 2:
            return None
        requester_id = active_ids[self._rng_integers(len(active_ids))]
        requester = self._peers[requester_id]
        respondent_id = self._sample_respondent(self.rng, requester_id)
        if respondent_id is None:
            return None
        respondent = self._peers[respondent_id]

        # Serve with probability equal to the requester's reputation.
        served = self._rng_random() < self._global_reputation(requester_id)
        self._record_decision(
            requester_cooperative=requester.is_cooperative,
            respondent_cooperative=respondent.is_cooperative,
            served=served,
        )
        if not served:
            return TransactionOutcome(
                time=time,
                requester=requester_id,
                respondent=respondent_id,
                served=False,
            )

        requester_satisfied, respondent_satisfied = self._service_outcomes(
            requester, respondent
        )
        self._exchange_feedback(
            time, requester, respondent, requester_satisfied, respondent_satisfied
        )
        # The transaction counts towards each partner's outstanding audit.
        self._note_transaction(requester_id, time)
        self._note_transaction(respondent_id, time)
        return TransactionOutcome(
            time=time,
            requester=requester_id,
            respondent=respondent_id,
            served=True,
            requester_satisfied=requester_satisfied,
            respondent_satisfied=respondent_satisfied,
        )

    # ------------------------------------------------------------------ #
    # Steps                                                                 #
    # ------------------------------------------------------------------ #
    def _service_outcomes(self, requester: Peer, respondent: Peer) -> tuple[bool, bool]:
        """Sample whether each party found the transaction satisfactory.

        Satisfaction with a partner depends on that partner's ground-truth
        behaviour: the requester is satisfied when the respondent provided
        good service, and vice versa — reputation then converges to "the
        proportion of time the peer has offered good service".
        """
        requester_satisfied = respondent.behavior.provides_good_service(self.rng)
        respondent_satisfied = requester.behavior.provides_good_service(self.rng)
        return requester_satisfied, respondent_satisfied

    def _exchange_feedback(
        self,
        time: float,
        requester: Peer,
        respondent: Peer,
        requester_satisfied: bool,
        respondent_satisfied: bool,
    ) -> None:
        """Both partners report to each other's score managers.

        Both reports are built first (opinion books update in the same order
        as ever) and delivered as one batch.
        """
        first = self._build_report(time, reporter=requester, subject=respondent,
                                   satisfied=requester_satisfied)
        second = self._build_report(time, reporter=respondent, subject=requester,
                                    satisfied=respondent_satisfied)
        self._submit_batch((first, second))

    def _build_report(
        self, time: float, reporter: Peer, subject: Peer, satisfied: bool
    ) -> FeedbackReport:
        """Record the reporter's local opinion and build its feedback report."""
        quality = reporter.opinions.record_interaction(
            subject.peer_id, 1.0 if satisfied else 0.0
        )
        return FeedbackReport(
            reporter=reporter.peer_id,
            subject=subject.peer_id,
            value=reporter.behavior.report_value(subject.peer_id, satisfied),
            quality=quality,
            time=time,
        )
