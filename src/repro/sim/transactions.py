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
    """Executes transactions against the population, topology and reputation backend.

    :meth:`execute` runs one time unit's transaction slot in one pass: the
    draws, the serve decision, both opinion updates and reports, the batched
    delivery and the lending notes, in that fixed order.
    """

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
        rng = self.rng
        requester_id = active_ids[self._rng_integers(len(active_ids))]
        requester = self._peers[requester_id]
        respondent_id = self._sample_respondent(rng, requester_id)
        if respondent_id is None:
            return None
        respondent = self._peers[respondent_id]

        # Serve with probability equal to the requester's reputation.
        served = self._rng_random() < self._global_reputation(requester_id)
        self._record_decision(
            requester.is_cooperative, respondent.is_cooperative, served
        )
        if not served:
            return TransactionOutcome(time, requester_id, respondent_id, False)

        # Each partner is satisfied when the other provided good service, so
        # reputation converges to "the proportion of time the peer has
        # offered good service".
        requester_satisfied = respondent.behavior.provides_good_service(rng)
        respondent_satisfied = requester.behavior.provides_good_service(rng)
        # Each partner records its local opinion, then reports to the other's
        # score managers; both reports are delivered as one batch.
        quality = requester.opinions.record_interaction(
            respondent_id, 1.0 if requester_satisfied else 0.0
        )
        first = FeedbackReport(
            requester_id,
            respondent_id,
            requester.behavior.report_value(respondent_id, requester_satisfied),
            quality,
            time,
        )
        quality = respondent.opinions.record_interaction(
            requester_id, 1.0 if respondent_satisfied else 0.0
        )
        second = FeedbackReport(
            respondent_id,
            requester_id,
            respondent.behavior.report_value(requester_id, respondent_satisfied),
            quality,
            time,
        )
        self._submit_batch((first, second))
        # The transaction counts towards each partner's outstanding audit.
        self._note_transaction(requester_id, time)
        self._note_transaction(respondent_id, time)
        return TransactionOutcome(
            time,
            requester_id,
            respondent_id,
            True,
            requester_satisfied,
            respondent_satisfied,
        )
