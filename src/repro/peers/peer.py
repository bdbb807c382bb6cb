"""The :class:`Peer` entity: identity, behaviour, introducer policy, state."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from ..ids import PeerId
from ..rocq.opinion import OpinionBook
from .behavior import BehaviorModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.policies import IntroducerPolicy

__all__ = ["PeerStatus", "Peer"]


class PeerStatus(str, Enum):
    """Membership status of a peer.

    ``WAITING`` — arrived but not yet admitted (looking for an introduction,
    or sitting out the waiting period).
    ``ACTIVE`` — admitted member of the community.
    ``REJECTED`` — refused entry and no longer trying (terminal).
    ``DEPARTED`` — left the community (terminal).
    """

    WAITING = "waiting"
    ACTIVE = "active"
    REJECTED = "rejected"
    DEPARTED = "departed"


@dataclass(slots=True)
class Peer:
    """One participant of the virtual community.

    Attributes
    ----------
    peer_id:
        Simulator-level identifier.
    behavior:
        Ground-truth behaviour strategy (service quality, reporting honesty).
    introducer_policy:
        How this peer answers introduction requests (naive / selective /
        refusing); ``None`` for peers that never act as introducers.
    status:
        Current membership status.
    is_founder:
        True for the ``numInit`` peers present at time zero.
    opinions:
        The peer's local opinions of the partners it has transacted with.
    is_cooperative:
        Ground-truth cooperativeness of :attr:`behavior`.

    A peer keeps no transaction counters: the ``auditTrans`` countdown lives
    on its :class:`~repro.core.lending.LendingContract`, and run-wide counts
    on the :class:`~repro.metrics.collector.MetricsCollector`.
    """

    peer_id: PeerId
    behavior: BehaviorModel
    introducer_policy: "IntroducerPolicy | None" = None
    status: PeerStatus = PeerStatus.WAITING
    is_founder: bool = False
    opinions: OpinionBook = field(init=False)
    #: Ground-truth cooperativeness, resolved once at construction: the
    #: behaviour model is never swapped after a peer is created, and the
    #: metrics layer reads this flag for every active peer on every sample.
    is_cooperative: bool = field(init=False)

    def __post_init__(self) -> None:
        self.opinions = OpinionBook(owner=self.peer_id)
        self.is_cooperative = self.behavior.is_cooperative

    @property
    def is_active(self) -> bool:
        """Whether the peer is an admitted member of the community."""
        return self.status == PeerStatus.ACTIVE

    @property
    def is_waiting(self) -> bool:
        """Whether the peer is still trying to get admitted."""
        return self.status == PeerStatus.WAITING

    @property
    def can_introduce(self) -> bool:
        """Whether the peer has a policy that could grant introductions."""
        return self.introducer_policy is not None and self.is_active

    # ------------------------------------------------------------------ #
    # State transitions                                                    #
    # ------------------------------------------------------------------ #
    def admit(self) -> None:
        """Mark the peer as an active member of the community."""
        self.status = PeerStatus.ACTIVE

    def reject(self) -> None:
        """Mark the peer as permanently refused entry."""
        self.status = PeerStatus.REJECTED

    def depart(self) -> None:
        """Mark the peer as having left the community."""
        self.status = PeerStatus.DEPARTED

    def __repr__(self) -> str:  # compact, log-friendly representation
        return (
            f"Peer(id={self.peer_id}, {self.behavior.kind.value}, "
            f"{self.status.value}, founder={self.is_founder})"
        )
