"""Local opinion formation.

Every peer keeps a *local opinion* about each partner it has transacted with:
running statistics of the satisfaction it observed, from which a *quality*
score expresses how much confidence the opinion deserves.  Quality grows with
the number of underlying interactions and shrinks with their variability,
which is how ROCQ lets score managers discount one-off or erratic reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ids import PeerId

__all__ = ["LocalOpinion", "OpinionBook"]


@dataclass(slots=True)
class LocalOpinion:
    """Opinion one peer holds about another.

    Attributes
    ----------
    interactions:
        Number of transactions that contributed to the opinion.
    mean / m2:
        Running mean and sum of squared deviations (Welford) of the raw
        satisfaction samples, used to derive the variance term of quality.
    """

    interactions: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @property
    def quality(self) -> float:
        """Confidence in the opinion, in ``[0, 1]``.

        Follows ROCQ's intent: quality increases with the number of
        interactions (saturating) and decreases with the variability of the
        observed behaviour.  A single observation already carries moderate
        confidence (0.5 of the asymptote) so fresh reports are not ignored.
        """
        interactions = self.interactions
        if interactions == 0:
            return 0.0
        count_term = interactions / (interactions + 1.0)
        # Sample variance of the satisfaction values.  Variance of a
        # Bernoulli variable is at most 0.25; normalise.
        variance = self.m2 / (interactions - 1) if interactions > 1 else 0.0
        consistency_term = 1.0 - min(1.0, variance / 0.25)
        return count_term * (0.5 + 0.5 * consistency_term)


@dataclass
class OpinionBook:
    """All local opinions held by a single peer, keyed by subject."""

    owner: PeerId
    _opinions: dict[PeerId, LocalOpinion] = field(default_factory=dict)

    def record_interaction(self, subject: PeerId, satisfaction: float) -> LocalOpinion:
        """Fold the outcome of one transaction with ``subject`` into its opinion.

        The satisfaction sample is clamped to ``[0, 1]`` and added to the
        running mean and ``m2`` with Welford's update.
        """
        opinion = self._opinions.get(subject)
        if opinion is None:
            opinion = LocalOpinion()
            self._opinions[subject] = opinion
        if satisfaction > 1.0:
            satisfaction = 1.0
        elif satisfaction < 0.0:
            satisfaction = 0.0
        interactions = opinion.interactions + 1
        opinion.interactions = interactions
        delta = satisfaction - opinion.mean
        opinion.mean += delta / interactions
        opinion.m2 += delta * (satisfaction - opinion.mean)
        return opinion

    def clear(self) -> None:
        """Forget every opinion (the owner has left the community)."""
        self._opinions.clear()

    def __len__(self) -> int:
        return len(self._opinions)
