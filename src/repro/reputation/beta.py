"""Beta reputation (Jøsang & Ismail, 2002) — both feedback polarities count.

The reputation of a peer is the expected value of a Beta(α, β) distribution
with α = positives + 1 and β = negatives + 1.  A newcomer sits exactly in the
middle (0.5): the paper's third newcomer policy, where a fresh identity is
"treated at par with a peer who behaves honestly and dishonestly roughly the
same proportion of time".
"""

from __future__ import annotations

from ..ids import PeerId
from .base import ReputationSystem

__all__ = ["BetaReputation"]


class BetaReputation(ReputationSystem):
    """Expected value of the Beta posterior over a peer's behaviour."""

    name = "beta"

    def __init__(self, forgetting: float = 1.0) -> None:
        """``forgetting`` < 1 discounts old evidence (1.0 keeps everything)."""
        super().__init__()
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting must be within (0, 1]")
        self.forgetting = forgetting

    def score(self, peer: PeerId) -> float:
        positives = self.log.positives_about(peer) * self.forgetting
        negatives = self.log.negatives_about(peer) * self.forgetting
        return (positives + 1.0) / (positives + negatives + 2.0)
