"""Common interface for the baseline reputation systems."""

from __future__ import annotations

import abc
from collections import defaultdict
from dataclasses import dataclass, field

from ..ids import PeerId

__all__ = ["InteractionLog", "ReputationSystem"]


@dataclass
class InteractionLog:
    """A raw log of rated interactions, shared by all baseline systems.

    Each entry is "``rater`` interacted with ``subject`` and was (or was not)
    satisfied".  The log keeps pairwise satisfaction counters, which is all
    the baseline systems need.
    """

    positive: dict[tuple[PeerId, PeerId], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    negative: dict[tuple[PeerId, PeerId], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    peers: set[PeerId] = field(default_factory=set)
    # Per-peer aggregates maintained incrementally so the totals below are
    # O(1) — required once these systems run inside the simulation engine,
    # where they are queried on every transaction.  Derived state: rebuilt
    # from the pairwise dicts in __post_init__, never passed in.
    _positives_received: dict[PeerId, int] = field(
        init=False, repr=False, compare=False,
        default_factory=lambda: defaultdict(int),
    )
    _negatives_received: dict[PeerId, int] = field(
        init=False, repr=False, compare=False,
        default_factory=lambda: defaultdict(int),
    )
    _complaints_filed: dict[PeerId, int] = field(
        init=False, repr=False, compare=False,
        default_factory=lambda: defaultdict(int),
    )

    def __post_init__(self) -> None:
        for (_, subject), count in self.positive.items():
            self._positives_received[subject] += count
        for (rater, subject), count in self.negative.items():
            self._negatives_received[subject] += count
            self._complaints_filed[rater] += count

    def record(self, rater: PeerId, subject: PeerId, satisfied: bool) -> None:
        """Add one rated interaction to the log."""
        self.peers.add(rater)
        self.peers.add(subject)
        key = (rater, subject)
        if satisfied:
            self.positive[key] += 1
            self._positives_received[subject] += 1
        else:
            self.negative[key] += 1
            self._negatives_received[subject] += 1
            self._complaints_filed[rater] += 1

    def positives_about(self, subject: PeerId) -> int:
        """Total satisfied interactions reported about ``subject``."""
        return self._positives_received[subject]

    def negatives_about(self, subject: PeerId) -> int:
        """Total unsatisfied interactions reported about ``subject``."""
        return self._negatives_received[subject]

    def complaints_by(self, rater: PeerId) -> int:
        """Complaints filed by ``rater`` (used by complaints-based trust)."""
        return self._complaints_filed[rater]


class ReputationSystem(abc.ABC):
    """A reputation system consuming an interaction log.

    Concrete systems differ in how they fold the log into a per-peer score in
    ``[0, 1]`` and — crucially for the paper's problem statement — in the
    score they assign to a peer nobody has interacted with yet.
    """

    #: Human-readable name used in comparison tables.
    name: str = "abstract"

    def __init__(self) -> None:
        self.log = InteractionLog()

    def record_interaction(
        self, rater: PeerId, subject: PeerId, satisfied: bool
    ) -> None:
        """Feed one rated interaction into the system."""
        self.log.record(rater, subject, satisfied)

    @abc.abstractmethod
    def score(self, peer: PeerId) -> float:
        """Current reputation of ``peer`` in ``[0, 1]``."""

    def newcomer_score(self) -> float:
        """Score of a peer that has never interacted (the bootstrap problem)."""
        return self.score(-1)

    def scores(self) -> dict[PeerId, float]:
        """Scores of every peer seen in the log."""
        return {peer: self.score(peer) for peer in sorted(self.log.peers)}

    def score_table(self) -> dict[PeerId, float]:
        """Scores of every known peer, computed as one batch.

        Semantically identical to :meth:`scores` but overridable by systems
        whose per-peer :meth:`score` repeats global work (EigenTrust's power
        iteration, tit-for-tat's pairwise scan); the simulation adapter in
        :mod:`repro.reputation.adapters` refreshes its cache through this
        hook.
        """
        return self.scores()
