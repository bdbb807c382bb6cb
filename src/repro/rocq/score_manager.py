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
from typing import Any

from ..errors import PersistenceError
from ..ids import PeerId
from ..restore_checks import checked_count, checked_fields, checked_number

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
    def from_snapshot(cls, data: Any, where: str = "a record") -> "ReputationRecord":
        """Rebuild a record from :meth:`snapshot` output, read back from a store.

        ``data`` must hold a finite ``value`` in [0, 1], integer ``reports``
        and ``adjustments`` of at least 0, a finite ``last_update`` and,
        optionally, a bool ``seeded``; anything else raises
        :class:`~repro.errors.PersistenceError` naming ``where``.
        """
        data = checked_fields(
            data, where, "value", "reports", "adjustments", "last_update"
        )
        value = checked_number(data["value"], f"value of {where}")
        if not 0.0 <= value <= 1.0:
            raise PersistenceError(f"value of {where} is outside [0, 1]: {value!r}")
        seeded = data.get("seeded", False)
        if type(seeded) is not bool:
            raise PersistenceError(f"seeded of {where} is not a bool: {seeded!r}")
        return cls(
            value=value,
            reports=checked_count(data["reports"], f"reports of {where}"),
            adjustments=checked_count(data["adjustments"], f"adjustments of {where}"),
            last_update=checked_number(data["last_update"], f"last_update of {where}"),
            seeded=seeded,
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
