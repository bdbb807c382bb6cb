"""New-peer arrivals.

"The arrival of new peers is modeled as a Poisson process with the arrival
rate equal to lambda.  Of these, cooperative peers arrive at the rate
lambda_c and uncooperative peers arrive at rate lambda_u" (§3).  The factory
also assigns introducer policies following §4: uncooperative entrants are
always naive introducers; cooperative entrants are naive with probability
``fraction_naive`` and selective otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import SimulationParameters
from ..core.policies import assign_policy
from ..peers.behavior import (
    BehaviorKind,
    BehaviorModel,
    make_behavior,
)
from ..peers.peer import Peer
from ..peers.population import Population
from ..rng import Stream

__all__ = ["PoissonArrivalProcess", "ArrivalFactory"]


@dataclass
class PoissonArrivalProcess:
    """Generates exponentially distributed inter-arrival times."""

    rate: float
    rng: Stream
    _arrivals_generated: int = field(default=0, repr=False)

    def next_arrival_after(self, time: float) -> float:
        """Time of the next arrival strictly after ``time``.

        Returns ``inf`` when the rate is zero (no arrivals ever happen), which
        lets the engine simply never schedule the next arrival event.
        """
        if self.rate <= 0.0:
            return float("inf")
        gap = self.rng.exponential(1.0 / self.rate)
        self._arrivals_generated += 1
        return time + gap

    @property
    def arrivals_generated(self) -> int:
        """How many inter-arrival gaps have been drawn so far."""
        return self._arrivals_generated


@dataclass
class ArrivalFactory:
    """Creates arriving peers with the paper's behaviour/policy mix."""

    params: SimulationParameters
    population: Population
    rng: Stream

    def make_behavior_for_arrival(self) -> BehaviorModel:
        """Draw the ground-truth behaviour of the next arrival."""
        if self.rng.random() < self.params.fraction_uncooperative:
            return make_behavior(
                BehaviorKind.FREERIDER,
                cooperative_quality=self.params.cooperative_service_quality,
                uncooperative_quality=self.params.uncooperative_service_quality,
            )
        return make_behavior(
            BehaviorKind.COOPERATIVE,
            cooperative_quality=self.params.cooperative_service_quality,
            uncooperative_quality=self.params.uncooperative_service_quality,
        )

    def create_arrival(self, time: float) -> Peer:
        """Create one arriving peer (WAITING status) registered in the population."""
        behavior = self.make_behavior_for_arrival()
        policy = assign_policy(behavior, self.params, self.rng)
        return self.population.create_peer(
            behavior=behavior,
            introducer_policy=policy,
            is_founder=False,
        )

    def create_founder(self) -> Peer:
        """Create one founding member (cooperative, admitted by the engine)."""
        behavior = make_behavior(
            BehaviorKind.COOPERATIVE,
            cooperative_quality=self.params.cooperative_service_quality,
            uncooperative_quality=self.params.uncooperative_service_quality,
        )
        policy = assign_policy(behavior, self.params, self.rng)
        return self.population.create_peer(
            behavior=behavior,
            introducer_policy=policy,
            is_founder=True,
        )
