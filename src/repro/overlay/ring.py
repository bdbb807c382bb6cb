"""The Chord-style ring: node membership and successor lookup.

The ring is maintained centrally (a sorted list of keys) because the paper's
simulator assumes instantaneous, loss-free message delivery; what matters for
the experiments is *which* node is responsible for *which* key, and how that
responsibility moves under churn.

Membership changes are incremental, as in Chord itself: a join or leave only
touches the two neighbouring nodes' successor/predecessor pointers, and the
ring records which arc changed hands in :attr:`ChordRing.last_change` so
downstream caches can move only the keys of that arc.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from ..errors import UnknownPeerError
from ..ids import KEY_SPACE_BITS, PeerId
from .membership import MembershipChange, MembershipKind
from .node import OverlayNode

#: Size of the identifier circle, hoisted: computing ``1 << 160`` and taking
#: a 160-bit modulo on every lookup is measurable on the assignment hot path,
#: and keys produced by ``hash_to_key``/``replica_key`` are already in range.
_KEY_SPACE = 1 << KEY_SPACE_BITS

__all__ = ["ChordRing"]


@dataclass
class ChordRing:
    """In-memory Chord ring holding one :class:`OverlayNode` per live peer."""

    _nodes_by_key: dict[int, OverlayNode] = field(default_factory=dict)
    _nodes_by_peer: dict[PeerId, OverlayNode] = field(default_factory=dict)
    _sorted_keys: list[int] = field(default_factory=list)
    #: The :class:`MembershipChange` produced by the most recent ``join`` or
    #: ``leave`` (``None`` initially, and after an idempotent no-op join).
    last_change: MembershipChange | None = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    # Membership                                                           #
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._sorted_keys)

    def __contains__(self, peer_id: PeerId) -> bool:
        return peer_id in self._nodes_by_peer

    def peers(self) -> list[PeerId]:
        """Return the peer ids of all live overlay nodes (unordered)."""
        return list(self._nodes_by_peer)

    def node_for_peer(self, peer_id: PeerId) -> OverlayNode:
        """Return the overlay node owned by ``peer_id``."""
        try:
            return self._nodes_by_peer[peer_id]
        except KeyError as exc:
            raise UnknownPeerError(peer_id) from exc

    def join(self, peer_id: PeerId) -> OverlayNode:
        """Add ``peer_id``'s node to the ring and wire its neighbours.

        Only the new node and its two ring neighbours are touched: an
        O(log n) position lookup, O(1) pointer updates, and one C-level
        memmove of the sorted key list (``list.insert``) — no Python-level
        work proportional to ring size, unlike the old whole-ring rewiring.
        The arc the node takes over from its successor is recorded in
        :attr:`last_change`.
        """
        if peer_id in self._nodes_by_peer:
            self.last_change = None
            return self._nodes_by_peer[peer_id]
        node = OverlayNode(peer_id=peer_id)
        # Handle the (astronomically unlikely) key collision by linear probing.
        while node.key in self._nodes_by_key:
            node.key = (node.key + 1) % (1 << KEY_SPACE_BITS)
        self._nodes_by_key[node.key] = node
        self._nodes_by_peer[peer_id] = node
        index = bisect_left(self._sorted_keys, node.key)
        self._sorted_keys.insert(index, node.key)
        total = len(self._sorted_keys)
        successor_key = self._sorted_keys[(index + 1) % total]
        predecessor_key = self._sorted_keys[(index - 1) % total]
        node.successor = successor_key
        node.predecessor = predecessor_key
        # On a single-node ring both neighbours are the node itself, and the
        # two writes below simply re-assert its self-pointers.
        self._nodes_by_key[predecessor_key].successor = node.key
        self._nodes_by_key[successor_key].predecessor = node.key
        self.last_change = MembershipChange(
            kind=MembershipKind.JOIN,
            peer_id=peer_id,
            node_key=node.key,
            predecessor_key=predecessor_key,
            successor_key=successor_key,
            ring_size=total,
        )
        return node

    def leave(self, peer_id: PeerId) -> OverlayNode:
        """Remove ``peer_id``'s node from the ring and return it.

        The departing node's predecessor and successor are linked to each
        other directly; no other node is touched.  The arc the node hands
        back to its successor is recorded in :attr:`last_change`.
        """
        node = self.node_for_peer(peer_id)
        del self._nodes_by_peer[peer_id]
        del self._nodes_by_key[node.key]
        index = bisect_left(self._sorted_keys, node.key)
        if index < len(self._sorted_keys) and self._sorted_keys[index] == node.key:
            self._sorted_keys.pop(index)
        total = len(self._sorted_keys)
        if total:
            successor_key = self._sorted_keys[index % total]
            predecessor_key = self._sorted_keys[(index - 1) % total]
            self._nodes_by_key[predecessor_key].successor = successor_key
            self._nodes_by_key[successor_key].predecessor = predecessor_key
        else:
            successor_key = node.key
            predecessor_key = node.key
        node.clear_routing_state()
        self.last_change = MembershipChange(
            kind=MembershipKind.LEAVE,
            peer_id=peer_id,
            node_key=node.key,
            predecessor_key=predecessor_key,
            successor_key=successor_key,
            ring_size=total,
        )
        return node

    # ------------------------------------------------------------------ #
    # Responsibility                                                       #
    # ------------------------------------------------------------------ #
    def successor_of(self, key: int) -> OverlayNode:
        """Return the node responsible for ``key`` (its clockwise successor)."""
        if not self._sorted_keys:
            raise UnknownPeerError(-1)
        if key >= _KEY_SPACE or key < 0:
            key %= _KEY_SPACE
        index = bisect_left(self._sorted_keys, key)
        if index == len(self._sorted_keys):
            index = 0
        return self._nodes_by_key[self._sorted_keys[index]]
