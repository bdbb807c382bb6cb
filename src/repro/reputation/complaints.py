"""Complaints-based trust (Aberer & Despotovic, CIKM 2001).

Only *negative* feedback is recorded: a peer files a complaint when a
transaction went badly.  Trust is assessed from the product of complaints
received and complaints filed (an agent that complains about everyone is as
suspect as one everyone complains about); a peer with no complaints — in
particular every newcomer — is fully trusted.

This is the paper's example of the first newcomer policy ("give the benefit
of the doubt"), and the reason whitewashing works against such systems.
"""

from __future__ import annotations

from ..ids import PeerId
from .base import ReputationSystem

__all__ = ["ComplaintsBasedTrust"]


class ComplaintsBasedTrust(ReputationSystem):
    """Trust from complaint counts; newcomers are fully trusted."""

    name = "complaints"

    def __init__(self, distrust_threshold: float = 4.0) -> None:
        super().__init__()
        if distrust_threshold <= 0:
            raise ValueError("distrust_threshold must be positive")
        self.distrust_threshold = distrust_threshold

    def complaint_product(self, peer: PeerId) -> float:
        """cr(p) * cf(p): complaints received times complaints filed (plus one).

        The +1 terms keep the product meaningful when one of the counts is
        zero, following the decision rule used in the P-Grid work.
        """
        received = self.log.negatives_about(peer)
        filed = self.log.complaints_by(peer)
        return float((received + 1) * (filed + 1)) - 1.0

    def score(self, peer: PeerId) -> float:
        """Map the complaint product onto [0, 1]; no complaints means 1."""
        product = self.complaint_product(peer)
        return self.distrust_threshold / (self.distrust_threshold + product)
