"""Per-manager reputation aggregation state.

Each score manager holds, for every subject it is responsible for, a
:class:`ReputationRecord`: the current aggregated reputation plus bookkeeping
about how many reports contributed to it, and, for every reporter it has
heard from, a *credibility*: how far the manager trusts that reporter's
reports, and how many reports it has received from it.

Reporters whose opinions historically agree with the aggregated reputation
of the subjects they report on are credible; reporters who consistently
deviate (malicious badmouthing, or uncooperative peers that always report
dissatisfaction to shield their own reputation) see their credibility eroded
and their future reports discounted.  A long run holds millions of
(manager, reporter) pairs, so credibility is kept flat, in two arrays
beside a sorted array of reporter ids, rather than as one object per pair.

These are plain data: the update rule that folds reports and adjustments
into them lives in one place, :class:`repro.rocq.store.ReputationStore`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from ..ids import PeerId

__all__ = ["ReputationRecord", "ScoreManager"]


@dataclass(slots=True)
class ReputationRecord:
    """Reputation a single score manager stores for one subject."""

    value: float = 0.0
    reports: int = 0
    adjustments: int = 0
    last_update: float = 0.0
    #: True when the value was installed explicitly (founder bootstrap)
    #: rather than derived from reports/adjustments.
    seeded: bool = False

    def snapshot(self) -> dict[str, float]:
        """Return a plain-dict copy (used by digests and persistence)."""
        return {
            "value": self.value,
            "reports": self.reports,
            "adjustments": self.adjustments,
            "last_update": self.last_update,
            "seeded": self.seeded,
        }

    @classmethod
    def from_snapshot(cls, data: dict[str, float]) -> "ReputationRecord":
        """Rebuild a record from :meth:`snapshot` output."""
        return cls(
            value=float(data["value"]),
            reports=int(data["reports"]),
            adjustments=int(data["adjustments"]),
            last_update=float(data["last_update"]),
            seeded=bool(data.get("seeded", False)),
        )


@dataclass(slots=True)
class ScoreManager:
    """The reputation records and reporter credibility one manager peer holds.

    ``reporters`` holds every reporter heard from in ascending order;
    ``credibility[i]`` and ``report_counts[i]`` belong to ``reporters[i]``.
    """

    records: dict[PeerId, ReputationRecord] = field(default_factory=dict)
    reporters: array = field(default_factory=lambda: array("I"))
    credibility: array = field(default_factory=lambda: array("d"))
    report_counts: array = field(default_factory=lambda: array("I"))
