"""The decision success rate of §4.1.

The paper measures "the proportion of decisions to serve a request or not
taken by a cooperative peer that are correct":

    success = (N_acc_coop + N_den_uncoop) / (total decisions)

where ``N_acc_coop`` is the number of requests from cooperative peers that
were accepted and ``N_den_uncoop`` the number of requests from uncooperative
peers that were denied.  Only decisions made by cooperative respondents are
counted — an uncooperative respondent's choices say nothing about the
reputation system's accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SuccessRateTracker"]


@dataclass
class SuccessRateTracker:
    """Incremental tally of serve/deny decisions made by cooperative peers."""

    accepted_cooperative: int = 0
    accepted_uncooperative: int = 0
    denied_cooperative: int = 0
    denied_uncooperative: int = 0

    def record(self, requester_cooperative: bool, served: bool) -> None:
        """Record one decision about a requester of known ground-truth type."""
        if served and requester_cooperative:
            self.accepted_cooperative += 1
        elif served and not requester_cooperative:
            self.accepted_uncooperative += 1
        elif not served and requester_cooperative:
            self.denied_cooperative += 1
        else:
            self.denied_uncooperative += 1

    @property
    def total_decisions(self) -> int:
        """All decisions recorded so far."""
        return (
            self.accepted_cooperative
            + self.accepted_uncooperative
            + self.denied_cooperative
            + self.denied_uncooperative
        )

    @property
    def correct_decisions(self) -> int:
        """Decisions the paper counts as correct."""
        return self.accepted_cooperative + self.denied_uncooperative

    @property
    def success_rate(self) -> float:
        """The paper's success-rate metric (NaN before any decision)."""
        total = self.total_decisions
        if total == 0:
            return float("nan")
        return self.correct_decisions / total
