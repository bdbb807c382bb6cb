"""Baseline reputation systems from the paper's related-work discussion.

The paper positions reputation lending against three families of systems
(§1, §5): complaints-based trust (only negative feedback, newcomers trusted
by default), positive-only feedback (newcomers start at the bottom), and
schemes counting both (newcomers start in the middle), plus credit/barter
mechanisms such as BitTorrent's tit-for-tat and EigenTrust's global trust
vector.  This package implements those baselines behind a single
:class:`~repro.reputation.base.ReputationSystem` interface so the newcomer
bootstrap problem can be studied side by side with the lending mechanism
(see :mod:`repro.reputation.comparison`).

The systems operate on explicit interaction logs; through the pluggable
backend layer (:mod:`repro.reputation.backend` and the adapters in
:mod:`repro.reputation.adapters`) every one of them can additionally be run
*inside* the full discrete-event simulation — churn, arrivals, lending,
whitewashers, colluders — by setting
``SimulationParameters.reputation_scheme``.
"""

from .base import InteractionLog, ReputationSystem
from .complaints import ComplaintsBasedTrust
from .positive_only import PositiveOnlyReputation
from .beta import BetaReputation
from .tit_for_tat import TitForTatCredit
from .backend import (
    ReputationBackend,
    available_schemes,
    make_reputation_backend,
    register_backend,
)
from .adapters import LogReputationBackend

__all__ = [
    "InteractionLog",
    "ReputationSystem",
    "ComplaintsBasedTrust",
    "PositiveOnlyReputation",
    "BetaReputation",
    "TitForTatCredit",
    "ReputationBackend",
    "LogReputationBackend",
    "available_schemes",
    "make_reputation_backend",
    "register_backend",
]
