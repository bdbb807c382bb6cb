"""Side-by-side comparison of how baseline systems treat newcomers.

This module operationalises the taxonomy of §1 of the paper: feed every
baseline the same synthetic interaction trace (honest regulars, freeriders,
and a brand-new peer that nobody has interacted with) and report where the
newcomer lands relative to the established peers.  The paper's argument is
that every baseline either over-trusts the newcomer (inviting whitewashing)
or freezes it out (the bootstrap problem); reputation lending threads the
needle by making an existing member stake reputation on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ids import PeerId
from ..numeric import pairwise_sum
from ..rng import Stream
from .base import ReputationSystem
from .beta import BetaReputation
from .complaints import ComplaintsBasedTrust
from .eigentrust import EigenTrust
from .positive_only import PositiveOnlyReputation
from .tit_for_tat import TitForTatCredit

__all__ = ["NewcomerReport", "default_systems", "compare_newcomer_treatment"]


@dataclass(frozen=True)
class NewcomerReport:
    """How one reputation system scores the three archetypes."""

    system: str
    honest_score: float
    freerider_score: float
    newcomer_score: float

    @property
    def newcomer_like_honest(self) -> bool:
        """Is the stranger closer to an honest regular than to a freerider?"""
        return abs(self.newcomer_score - self.honest_score) <= abs(
            self.newcomer_score - self.freerider_score
        )

    @property
    def separates_honest_from_freerider(self) -> bool:
        """Does the system at least distinguish regulars from freeriders?"""
        return self.honest_score > self.freerider_score


def default_systems() -> list[ReputationSystem]:
    """The baseline systems compared by default."""
    return [
        ComplaintsBasedTrust(),
        PositiveOnlyReputation(),
        BetaReputation(),
        EigenTrust(pre_trusted={0}),
        TitForTatCredit(),
    ]


def _synthetic_trace(
    systems: list[ReputationSystem],
    honest: list[PeerId],
    freeriders: list[PeerId],
    interactions: int,
    seed: int,
) -> None:
    """Feed the same random trace of rated interactions to every system."""
    rng = Stream(seed)
    members = honest + freeriders
    for _ in range(interactions):
        # Two distinct members: the subject sits 1 to len - 1 places on.
        first = rng.integers(len(members))
        second = (first + 1 + rng.integers(len(members) - 1)) % len(members)
        rater, subject = members[first], members[second]
        good_service = rng.random() < (0.95 if subject in honest else 0.05)
        for system in systems:
            system.record_interaction(rater, subject, good_service)


def compare_newcomer_treatment(
    num_honest: int = 8,
    num_freeriders: int = 3,
    interactions: int = 600,
    seed: int = 7,
    systems: list[ReputationSystem] | None = None,
) -> list[NewcomerReport]:
    """Run the comparison and return one report per system.

    The newcomer is a peer id that never appears in the trace, so each system
    scores it with whatever its bootstrap rule is.
    """
    systems = systems if systems is not None else default_systems()
    honest = list(range(num_honest))
    freeriders = list(range(num_honest, num_honest + num_freeriders))
    newcomer = num_honest + num_freeriders  # never interacts
    _synthetic_trace(systems, honest, freeriders, interactions, seed)
    reports = []
    for system in systems:
        honest_scores = [system.score(peer) for peer in honest]
        freerider_scores = [system.score(peer) for peer in freeriders]
        reports.append(
            NewcomerReport(
                system=system.name,
                honest_score=pairwise_sum(honest_scores) / len(honest_scores),
                freerider_score=pairwise_sum(freerider_scores) / len(freerider_scores),
                newcomer_score=float(system.score(newcomer)),
            )
        )
    return reports
