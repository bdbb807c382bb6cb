"""Message types exchanged with score managers.

The simulator delivers these instantly (the paper models no transmission
delay or loss) but keeping them as explicit, signed-in-spirit value objects
preserves the protocol structure: feedback reports after transactions, and
reputation adjustments for the lending protocol (stake deduction, credit to
the new entrant, settlement after an audit).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..ids import PeerId

__all__ = ["FeedbackReport", "AdjustmentKind", "ReputationAdjustment"]


# Not frozen, like ``TransactionOutcome``: a frozen dataclass's ``__init__``
# sets each field through ``object.__setattr__``, and every served
# transaction builds two reports.
@dataclass(slots=True)
class FeedbackReport:
    """One satisfaction report sent to a subject's score managers.

    Attributes
    ----------
    reporter:
        The peer that took part in the transaction and is reporting.
    subject:
        The transaction partner being reported on.
    value:
        Satisfaction in ``[0, 1]``: the paper uses 1 (satisfied) or 0 (not).
    quality:
        Confidence attached to the report (from the reporter's opinion book).
    time:
        Simulation time of the transaction.
    """

    reporter: PeerId
    subject: PeerId
    value: float
    quality: float
    time: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"report value must be in [0, 1], got {self.value}")
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError(f"report quality must be in [0, 1], got {self.quality}")


class AdjustmentKind(str, Enum):
    """Why a direct reputation adjustment was issued."""

    LEND_DEBIT = "lend_debit"          # introducer stakes introAmt
    LEND_CREDIT = "lend_credit"        # new entrant receives introAmt
    AUDIT_RETURN = "audit_return"      # stake returned after a positive audit
    AUDIT_REWARD = "audit_reward"      # reward for introducing a good peer
    AUDIT_PENALTY = "audit_penalty"    # entrant stripped of the lent amount
    SANCTION = "sanction"              # punishment (e.g. duplicate introductions)
    BOOTSTRAP_CREDIT = "bootstrap_credit"  # fixed-credit baseline grant


@dataclass(frozen=True, slots=True)
class ReputationAdjustment:
    """A signed instruction to add ``delta`` to ``subject``'s stored reputation.

    ``issuer`` identifies the peer on whose behalf the adjustment is made (the
    introducer for lending messages, the score-manager quorum for sanctions).
    ``reference`` carries the unique introduction id so duplicate messages can
    be detected, mirroring the paper's "unique id to prevent duplicate
    requests".
    """

    kind: AdjustmentKind
    issuer: PeerId
    subject: PeerId
    delta: float
    time: float
    reference: str = ""
