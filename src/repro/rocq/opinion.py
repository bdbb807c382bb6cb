"""Local opinion formation.

Every peer keeps a *local opinion* about each partner it has transacted with:
running statistics of the satisfaction it observed, from which a *quality*
score expresses how much confidence the opinion deserves.  Quality grows with
the number of underlying interactions and shrinks with their variability,
which is how ROCQ lets score managers discount one-off or erratic reports.

A peer's :class:`OpinionBook` keeps those statistics in one flat array beside
a sorted array of partner ids, not one object (or dict entry) per opinion: a
long run holds hundreds of thousands of opinions.  Each opinion takes three
consecutive doubles of the statistics array: its interaction count, mean and
``m2``.  The two arrays are created at the book's first interaction and
dropped by :meth:`OpinionBook.clear`, so the many entrants that are refused,
still waiting or gone hold no array at all.
:meth:`OpinionBook.opinion` reads one back as a :class:`LocalOpinion`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass

from ..ids import PeerId

__all__ = ["LocalOpinion", "OpinionBook", "opinion_quality"]


def opinion_quality(interactions: float, m2: float) -> float:
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


#: The statistics of an opinion with no interaction yet: count, mean, ``m2``.
_NO_STATS = array("d", (0.0, 0.0, 0.0))


@dataclass(slots=True)
class OpinionBook:
    """All local opinions held by a single peer, keyed by subject.

    ``_subjects`` holds every subject in ascending order; the interaction
    count, mean and ``m2`` of ``_subjects[i]`` are ``_stats[3 * i]``,
    ``_stats[3 * i + 1]`` and ``_stats[3 * i + 2]``.  Both are ``None`` until
    the first interaction and again after :meth:`clear`.  The count is kept
    as a double: it is exact below ``2**53``, and every division it takes
    part in rounds as it would with an ``int``, so the qualities are the same.
    """

    owner: PeerId
    _subjects: array | None = None
    _stats: array | None = None

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
        subjects = self._subjects
        if subjects is None:
            subjects = self._subjects = array("I")
            stats = self._stats = array("d")
        else:
            stats = self._stats
        index = bisect_left(subjects, subject)
        base = 3 * index
        if index == len(subjects) or subjects[index] != subject:
            subjects.insert(index, subject)
            stats[base:base] = _NO_STATS
        interactions = stats[base] + 1.0
        mean = stats[base + 1]
        delta = satisfaction - mean
        mean += delta / interactions
        m2 = stats[base + 2] + delta * (satisfaction - mean)
        stats[base] = interactions
        stats[base + 1] = mean
        stats[base + 2] = m2
        return opinion_quality(interactions, m2)

    def opinion(self, subject: PeerId) -> LocalOpinion | None:
        """Snapshot of the opinion about ``subject``; ``None`` if it has none."""
        subjects = self._subjects
        if subjects is None:
            return None
        index = bisect_left(subjects, subject)
        if index == len(subjects) or subjects[index] != subject:
            return None
        stats = self._stats
        base = 3 * index
        return LocalOpinion(
            interactions=int(stats[base]),
            mean=stats[base + 1],
            m2=stats[base + 2],
        )

    def clear(self) -> None:
        """Forget every opinion (the owner has left the community)."""
        self._subjects = None
        self._stats = None

    def __len__(self) -> int:
        subjects = self._subjects
        return 0 if subjects is None else len(subjects)
