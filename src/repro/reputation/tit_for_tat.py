"""Pairwise tit-for-tat credit (the BitTorrent/Scrivener family).

No global reputation at all: every pair of peers keeps a bilateral balance of
favours.  A peer serves another only while the partner's debt stays within an
allowance — BitTorrent's unchoking and Scrivener's credit limits are both
instances.  Newcomers have a zero balance everywhere and depend entirely on
the altruistic allowance (BitTorrent's optimistic unchoke slot), which is the
"small amount of initial credit" the paper contrasts its mechanism with.
"""

from __future__ import annotations

from ..ids import PeerId
from .base import ReputationSystem

__all__ = ["TitForTatCredit"]


class TitForTatCredit(ReputationSystem):
    """Bilateral favour balances with a fixed newcomer allowance."""

    name = "tit_for_tat"

    def __init__(self, allowance: float = 2.0) -> None:
        """``allowance`` is how far into debt a partner may go and still be served."""
        super().__init__()
        if allowance < 0:
            raise ValueError("allowance must be non-negative")
        self.allowance = allowance

    def balance(self, creditor: PeerId, debtor: PeerId) -> int:
        """How much ``debtor`` owes ``creditor`` (negative when it is owed).

        A satisfied interaction is a favour the subject did the rater, so
        ``log.positive[(debtor, creditor)]`` counts the favours ``creditor``
        did ``debtor``; the balance is the difference of the two counts.
        """
        positive = self.log.positive
        return positive.get((debtor, creditor), 0) - positive.get((creditor, debtor), 0)

    def would_serve(self, server: PeerId, requester: PeerId) -> bool:
        """BitTorrent-style decision: serve while the debt is within allowance."""
        return self.balance(server, requester) <= self.allowance

    def score_table(self) -> dict[PeerId, float]:
        """All scores from one pass over the observed balances.

        Unseen pairs have a zero balance (within any allowance), so only the
        logged pairs can push a debtor over the limit: counting those per
        debtor reproduces :meth:`score` in O(observed pairs) instead of
        O(peers²).
        """
        peers = self.log.peers
        if not peers:
            return {}
        # A balance above the (non-negative) allowance needs at least one
        # favour from the creditor, so the logged favours hold every such pair.
        positive = self.log.positive
        over_limit: dict[PeerId, int] = {}
        for (debtor, creditor), favours in positive.items():
            balance = favours - positive.get((creditor, debtor), 0)
            if balance > self.allowance and creditor != debtor:
                if creditor in peers and debtor in peers:
                    over_limit[debtor] = over_limit.get(debtor, 0) + 1
        others = len(peers) - 1
        if others <= 0:
            return {peer: 1.0 for peer in peers}
        return {
            peer: (others - over_limit.get(peer, 0)) / others for peer in peers
        }

    def score(self, peer: PeerId) -> float:
        """Fraction of peers in the log that would currently serve ``peer``.

        Gives the bilateral scheme a comparable [0, 1] "service availability"
        number: a well-behaved regular approaches 1, an over-drawn freerider
        approaches 0, and a newcomer gets exactly the altruistic baseline
        (everyone serves it because its balances are all zero).
        """
        others = [other for other in self.log.peers if other != peer]
        if not others:
            return 1.0
        served_by = sum(1 for other in others if self.would_serve(other, peer))
        return served_by / len(others)
