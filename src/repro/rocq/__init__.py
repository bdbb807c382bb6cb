"""ROCQ reputation management (Reputation, Opinion, Credibility, Quality).

The paper builds its lending mechanism on top of ROCQ (Garg & Battiti,
DIT-04-104; Garg, Battiti & Cascella, ISADS 2005): after every transaction
both partners report an opinion about each other to the partner's *score
managers*.  A score manager aggregates incoming opinions into the subject's
reputation, weighting each report by the *credibility* of the reporter and
the *quality* (confidence) of the opinion.  Reporters whose opinions agree
with the aggregate gain credibility; reporters who consistently disagree —
for example uncooperative peers who always badmouth their partners — lose it,
which limits the damage false feedback can do.

This package re-implements that scheme from its published description:

* :mod:`~repro.rocq.opinion` — local opinion formation and quality.
* :mod:`~repro.rocq.score_manager` — per-manager reputation records and
  reporter credibility (plain data).
* :mod:`~repro.rocq.store` — the replicated, DHT-assigned reputation store
  and the one implementation of the report and adjustment update rule; the
  managers' replicas are combined by their mean.
* :mod:`~repro.rocq.protocol` — feedback/adjustment message types.
"""

from .opinion import LocalOpinion, OpinionBook
from .protocol import FeedbackReport, ReputationAdjustment
from .score_manager import ReputationRecord, ScoreManager
from .store import ReputationStore

__all__ = [
    "LocalOpinion",
    "OpinionBook",
    "FeedbackReport",
    "ReputationAdjustment",
    "ReputationRecord",
    "ScoreManager",
    "ReputationStore",
]
