"""Random (uniform) interaction topology."""

from __future__ import annotations

from ..ids import PeerId
from ..rng import Stream
from .base import TopologyModel

__all__ = ["RandomTopology"]


class RandomTopology(TopologyModel):
    """Every member peer is an equally likely respondent/introducer.

    Membership is kept in a list plus a position index so both insertion and
    removal are O(1) and uniform sampling is a single integer draw.
    """

    def __init__(self) -> None:
        self._members: list[PeerId] = []
        self._positions: dict[PeerId, int] = {}

    def add_member(self, peer_id: PeerId) -> None:
        if peer_id in self._positions:
            return
        self._positions[peer_id] = len(self._members)
        self._members.append(peer_id)

    def remove_member(self, peer_id: PeerId) -> None:
        position = self._positions.pop(peer_id, None)
        if position is None:
            return
        last = self._members[-1]
        if last != peer_id:
            self._members[position] = last
            self._positions[last] = position
        self._members.pop()

    def sample_member(
        self, rng: Stream, exclude: PeerId | None = None
    ) -> PeerId | None:
        count = len(self._members)
        if count == 0:
            return None
        if count == 1:
            only = self._members[0]
            return None if only == exclude else only
        # Rejection sampling terminates quickly: at most one member is excluded.
        for _ in range(64):
            candidate = self._members[rng.integers(count)]
            if candidate != exclude:
                return candidate
        # Extremely defensive fallback (can only trigger with a pathological RNG).
        return next((m for m in self._members if m != exclude), None)

    def __contains__(self, peer_id: PeerId) -> bool:
        return peer_id in self._positions

    def __len__(self) -> int:
        return len(self._members)
