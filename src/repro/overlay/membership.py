"""Structured description of one overlay membership change.

Chord's own analysis (and §3 of the paper, which inherits it) is that a
single join or leave only moves responsibility for the arc between the
affected node and its predecessor: when a node with key ``k`` joins, it takes
the arc ``(predecessor_key, k]`` from its successor; when it leaves, the same
arc is handed back.  :class:`MembershipChange` captures exactly that — which
peer moved, where its node sat on the identifier circle, and the arc whose
responsibility changed hands — so the reputation store can hand the replica
keys of that arc to their new owner, as Chord does, and recompute only the
assignments those keys belong to instead of clearing its cache.

The record is produced by :meth:`repro.overlay.ring.ChordRing.join` /
``leave`` (exposed as :attr:`~repro.overlay.ring.ChordRing.last_change`) and
delivered by the engine to the reputation backend's ``membership_changed``
(see :class:`repro.reputation.backend.ReputationBackend`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..ids import PeerId

__all__ = ["MembershipKind", "MembershipChange"]


class MembershipKind(str, Enum):
    """Direction of a membership change."""

    JOIN = "join"
    LEAVE = "leave"


@dataclass(frozen=True)
class MembershipChange:
    """One node joining or leaving the ring, with the arc that changed hands.

    Attributes
    ----------
    kind:
        Whether the node joined or left.
    peer_id:
        The simulator-level peer whose overlay node moved.
    node_key:
        The node's position on the identifier circle.
    predecessor_key:
        Key of the node's ring predecessor (at the moment of the change); the
        arc ``(predecessor_key, node_key]`` is what moved between the node
        and its successor.  Equals ``node_key`` on a single-node ring.
    successor_key:
        Key of the node's ring successor at the moment of the change.  For a
        join this is the node that *lost* the arc; for a leave, the node that
        inherited it.  Equals ``node_key`` on a single-node ring.
    ring_size:
        Number of live nodes *after* the change was applied.
    """

    kind: MembershipKind
    peer_id: PeerId
    node_key: int
    predecessor_key: int
    successor_key: int
    ring_size: int

    @property
    def is_leave(self) -> bool:
        return self.kind is MembershipKind.LEAVE
