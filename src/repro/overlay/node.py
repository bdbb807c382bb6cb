"""A single node participating in the Chord-style overlay."""

from __future__ import annotations

from dataclasses import dataclass

from ..ids import KEY_SPACE_SIZE, PeerId, peer_key

__all__ = ["OverlayNode"]


@dataclass(slots=True)
class OverlayNode:
    """Overlay presence of a peer.

    Each simulated peer owns exactly one overlay node placed at
    ``peer_key(peer_id)`` on the identifier circle.  The node keeps its
    successor and predecessor pointers, which the ring maintains centrally
    (we do not model the stabilisation message exchange because the paper
    assumes instantaneous, loss-free delivery).

    Attributes
    ----------
    peer_id:
        The simulator-level identifier of the owning peer.
    key:
        Position on the identifier circle.
    successor / predecessor:
        Neighbouring keys on the ring (``None`` until the node is wired in).
    """

    peer_id: PeerId
    key: int = -1
    successor: int | None = None
    predecessor: int | None = None

    def __post_init__(self) -> None:
        if self.key < 0:
            self.key = peer_key(self.peer_id)
        self.key %= KEY_SPACE_SIZE

    def clear_routing_state(self) -> None:
        """Drop successor/predecessor (used when the node leaves)."""
        self.successor = None
        self.predecessor = None
