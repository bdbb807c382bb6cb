"""Introducer decision policies.

The paper models two kinds of introducers (§3, "Types of introducers"):

* **naive** — "indiscriminate and will give an introduction to any new
  entrant that asks for one";
* **selective** — "only give introductions to peers that they believe will
  behave in a cooperative fashion", but "make mistakes in their judgment and
  introduce a small percentage ``errSel`` of the dishonest nodes".

A third policy, :class:`RefusingPolicy`, never introduces anyone; it is not in
the paper but is useful as a degenerate baseline and in tests.

Policies only answer the *willingness* question.  Whether the introducer is
*allowed* to lend (reputation above ``minIntroRep``) is checked separately by
the admission controller, because the paper treats the two refusal reasons as
distinct outcomes (see Figure 4 and Figure 6).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from ..config import SimulationParameters
from ..peers.behavior import BehaviorModel
from ..rng import Stream

__all__ = [
    "IntroducerPolicy",
    "NaivePolicy",
    "SelectivePolicy",
    "RefusingPolicy",
    "assign_policy",
]


class IntroducerPolicy(abc.ABC):
    """Decides whether an introducer is willing to vouch for an applicant."""

    # Every peer holds one policy; the subclasses are slotted dataclasses.
    __slots__ = ()

    #: Short machine-readable label used by metrics and logs.
    name: str = "abstract"

    @abc.abstractmethod
    def is_willing(
        self,
        applicant_behavior: BehaviorModel,
        rng: Stream,
    ) -> bool:
        """Return True if the introducer agrees to introduce the applicant.

        The decision may use the applicant's (perceived) behaviour — the
        paper models selective introducers as judges of the applicant's
        honesty who err with a fixed probability — and randomness for that
        error.
        """


@dataclass(slots=True)
class NaivePolicy(IntroducerPolicy):
    """Introduces every applicant, no questions asked."""

    name: str = "naive"

    def is_willing(self, applicant_behavior: BehaviorModel, rng: Stream) -> bool:
        return True


@dataclass(slots=True)
class SelectivePolicy(IntroducerPolicy):
    """Introduces cooperative applicants; errs on uncooperative ones.

    ``error_rate`` is the paper's ``errSel``: the probability that an
    uncooperative applicant slips past the introducer's judgment.
    """

    error_rate: float = 0.1
    name: str = "selective"

    def is_willing(self, applicant_behavior: BehaviorModel, rng: Stream) -> bool:
        if applicant_behavior.is_cooperative:
            return True
        return rng.random() < self.error_rate


@dataclass(slots=True)
class RefusingPolicy(IntroducerPolicy):
    """Never introduces anyone (degenerate baseline)."""

    name: str = "refusing"

    def is_willing(self, applicant_behavior: BehaviorModel, rng: Stream) -> bool:
        return False


def assign_policy(
    behavior: BehaviorModel,
    params: SimulationParameters,
    rng: Stream,
) -> IntroducerPolicy:
    """Assign an introducer policy to a peer, following §4 of the paper.

    * Uncooperative peers are always naive introducers ("we assume that all
      new peers that are uncooperative are naive introducers").
    * Cooperative peers are naive with probability ``fraction_naive`` and
      selective otherwise.
    """
    if not behavior.is_cooperative:
        return NaivePolicy()
    if rng.random() < params.fraction_naive:
        return NaivePolicy()
    return SelectivePolicy(error_rate=params.selective_error_rate)
