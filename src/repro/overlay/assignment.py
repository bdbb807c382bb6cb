"""Score-manager assignment.

ROCQ stores every peer's reputation at ``numSM`` *score managers*: the overlay
nodes responsible for ``numSM`` independent hashes of the peer's identifier.
Replication matters for two reasons the paper calls out explicitly:

* redundancy when a score manager crashes or leaves before forwarding an
  introduction message (§2, "Multiple introduction requests"), and
* robustness of DHT-based routing under churn — "by using multiple score
  managers this impact is significantly reduced" (§3).

Each replica key is held by its *first candidate*, the ring successor of the
key.  :class:`ScoreManagerAssignment` resolves a peer's first candidates with
one bisect per replica (:meth:`~ScoreManagerAssignment.assignment_details`)
and turns first candidates into managers with the self-exclusion rule
(:meth:`~ScoreManagerAssignment.managers_from_firsts`).  The reputation store
keeps the first candidates of every subject it tracks and moves them as
Chord moves keys on a join or leave, so it resolves each subject cold only
once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from ..ids import PeerId, replica_key
from .ring import ChordRing

__all__ = ["ScoreManagerAssignment"]


@dataclass
class ScoreManagerAssignment:
    """Maps peers to their current set of score-manager peers."""

    ring: ChordRing
    num_score_managers: int
    #: Memoised replica keys per subject.  ``replica_key`` is a pure hash of
    #: ``(peer_id, replica_index)`` — independent of ring membership — so the
    #: tuple never needs invalidation; without it every cold assignment
    #: lookup pays ``num_score_managers`` SHA-1 digests.
    _replica_keys: dict[PeerId, tuple[int, ...]] = field(
        default_factory=dict, repr=False
    )

    def replica_keys_for(self, peer_id: PeerId) -> tuple[int, ...]:
        """The DHT keys of ``peer_id``'s score-manager replicas (memoised)."""
        keys = self._replica_keys.get(peer_id)
        if keys is None:
            keys = tuple(
                replica_key(peer_id, index)
                for index in range(self.num_score_managers)
            )
            self._replica_keys[peer_id] = keys
        return keys

    def managers_for(self, peer_id: PeerId) -> list[PeerId]:
        """Return the peers currently responsible for ``peer_id``'s reputation.

        The list preserves replica order (replica ``i`` maps to element ``i``)
        and may contain fewer than ``num_score_managers`` *distinct* peers on
        very small rings; duplicates are removed while keeping order so the
        caller always sees each manager once.  A stateless cold resolve.
        """
        return self.assignment_details(peer_id)[0]

    def assignment_details(self, peer_id: PeerId) -> tuple[list[PeerId], list[int]]:
        """Managers of ``peer_id`` and the ring key of each replica's first candidate.

        The first candidate of a replica is the node responsible for its
        replica key; the second list holds its ring key, in replica order.
        Both lists are empty on an empty ring.  This is the only place a
        replica key is looked up on the ring.
        """
        sorted_keys = self.ring._sorted_keys
        total = len(sorted_keys)
        if not total:
            return [], []
        first_keys = []
        # Replica keys are SHA-1-derived and always canonical, so no modulo
        # is needed before the bisect.
        for key in self.replica_keys_for(peer_id):
            index = bisect_left(sorted_keys, key)
            first_keys.append(sorted_keys[index if index < total else 0])
        return self.managers_from_firsts(peer_id, first_keys), first_keys

    def managers_from_firsts(
        self, peer_id: PeerId, first_keys: list[int]
    ) -> list[PeerId]:
        """Managers of ``peer_id`` given each replica's first-candidate key.

        A replica is managed by its first candidate, unless that candidate
        is ``peer_id``'s own node: a peer never manages its own reputation,
        so its ring successor manages the replica instead.  On a single-node
        ring the successor is the node itself, so the subject manages its
        own reputation there.  Duplicates are dropped, keeping replica order.
        """
        nodes_by_key = self.ring._nodes_by_key
        managers: list[PeerId] = []
        for key in first_keys:
            node = nodes_by_key[key]
            chosen = node.peer_id
            if chosen == peer_id:
                chosen = nodes_by_key[node.successor].peer_id
            if chosen not in managers:
                managers.append(chosen)
        return managers
