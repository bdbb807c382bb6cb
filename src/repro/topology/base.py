"""Abstract interface shared by all interaction topologies."""

from __future__ import annotations

import abc

from ..ids import PeerId
from ..rng import Stream

__all__ = ["TopologyModel"]


class TopologyModel(abc.ABC):
    """Chooses transaction respondents and prospective introducers.

    A topology tracks the set of *member* peers (peers admitted to the
    community).  ``sample_member`` draws one according to the topology's
    popularity model, optionally excluding a peer (a requester never responds
    to itself).
    """

    @abc.abstractmethod
    def add_member(self, peer_id: PeerId) -> None:
        """Register a newly admitted peer with the topology."""

    @abc.abstractmethod
    def remove_member(self, peer_id: PeerId) -> None:
        """Remove a departed peer from the topology."""

    @abc.abstractmethod
    def sample_member(
        self, rng: Stream, exclude: PeerId | None = None
    ) -> PeerId | None:
        """Draw one member peer; ``None`` if no eligible member exists."""

    @abc.abstractmethod
    def __contains__(self, peer_id: PeerId) -> bool:
        """Whether ``peer_id`` is currently a member of the topology."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of member peers."""

    # Convenience wrappers with intention-revealing names ----------------- #
    def sample_respondent(self, rng: Stream, requester: PeerId) -> PeerId | None:
        """Pick the respondent of a transaction initiated by ``requester``."""
        return self.sample_member(rng, exclude=requester)

    def sample_introducer(self, rng: Stream, applicant: PeerId) -> PeerId | None:
        """Pick the member a new arrival asks for an introduction."""
        return self.sample_member(rng, exclude=applicant)
