"""Local opinion formation.

Every peer keeps a *local opinion* about each partner it has transacted with:
running statistics of the satisfaction it observed, from which a *quality*
score expresses how much confidence the opinion deserves.  Quality grows with
the number of underlying interactions and shrinks with their variability,
which is how ROCQ lets score managers discount one-off or erratic reports.

A peer's :class:`OpinionBook` keeps those statistics in flat arrays beside a
sorted array of partner ids, not one object (or dict entry) per opinion: a
long run holds hundreds of thousands of opinions.
:meth:`OpinionBook.opinion` reads one back as a :class:`LocalOpinion`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field

from ..ids import PeerId

__all__ = ["LocalOpinion", "OpinionBook", "opinion_quality"]


def opinion_quality(interactions: int, m2: float) -> float:
    """Confidence in an opinion, in ``[0, 1]``.

    Follows ROCQ's intent: quality increases with the number of
    interactions (saturating) and decreases with the variability of the
    observed behaviour.  A single observation already carries moderate
    confidence (0.5 of the asymptote) so fresh reports are not ignored.
    """
    if interactions == 0:
        return 0.0
    count_term = interactions / (interactions + 1.0)
    # Sample variance of the satisfaction values.  Variance of a Bernoulli
    # variable is at most 0.25; normalise.
    variance = m2 / (interactions - 1) if interactions > 1 else 0.0
    consistency_term = 1.0 - min(1.0, variance / 0.25)
    return count_term * (0.5 + 0.5 * consistency_term)


@dataclass(frozen=True, slots=True)
class LocalOpinion:
    """Snapshot of the opinion one peer holds about another.

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
        """Confidence in the opinion (see :func:`opinion_quality`)."""
        return opinion_quality(self.interactions, self.m2)


@dataclass(slots=True)
class OpinionBook:
    """All local opinions held by a single peer, keyed by subject.

    ``_subjects`` holds every subject in ascending order; the statistics of
    ``_subjects[i]`` live at index ``i`` of the three other arrays.
    """

    owner: PeerId
    _subjects: array = field(default_factory=lambda: array("I"))
    _interactions: array = field(default_factory=lambda: array("I"))
    _means: array = field(default_factory=lambda: array("d"))
    _m2s: array = field(default_factory=lambda: array("d"))

    def record_interaction(self, subject: PeerId, satisfaction: float) -> float:
        """Fold one transaction with ``subject`` into its opinion; return quality.

        The satisfaction sample is clamped to ``[0, 1]`` and added to the
        running mean and ``m2`` with Welford's update.  The return value is
        the updated opinion's quality, which the reporter attaches to its
        feedback report.
        """
        if satisfaction > 1.0:
            satisfaction = 1.0
        elif satisfaction < 0.0:
            satisfaction = 0.0
        counts = self._interactions
        means = self._means
        m2s = self._m2s
        subjects = self._subjects
        index = bisect_left(subjects, subject)
        if index == len(subjects) or subjects[index] != subject:
            subjects.insert(index, subject)
            counts.insert(index, 0)
            means.insert(index, 0.0)
            m2s.insert(index, 0.0)
        interactions = counts[index] + 1
        mean = means[index]
        delta = satisfaction - mean
        mean += delta / interactions
        m2 = m2s[index] + delta * (satisfaction - mean)
        counts[index] = interactions
        means[index] = mean
        m2s[index] = m2
        return opinion_quality(interactions, m2)

    def opinion(self, subject: PeerId) -> LocalOpinion | None:
        """Snapshot of the opinion about ``subject``; ``None`` if it has none."""
        subjects = self._subjects
        index = bisect_left(subjects, subject)
        if index == len(subjects) or subjects[index] != subject:
            return None
        return LocalOpinion(
            interactions=self._interactions[index],
            mean=self._means[index],
            m2=self._m2s[index],
        )

    def clear(self) -> None:
        """Forget every opinion (the owner has left the community)."""
        del self._subjects[:]
        del self._interactions[:]
        del self._means[:]
        del self._m2s[:]

    def __len__(self) -> int:
        return len(self._subjects)
