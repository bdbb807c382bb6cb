"""Score-manager assignment.

ROCQ stores every peer's reputation at ``numSM`` *score managers*: the overlay
nodes responsible for ``numSM`` independent hashes of the peer's identifier.
Replication matters for two reasons the paper calls out explicitly:

* redundancy when a score manager crashes or leaves before forwarding an
  introduction message (§2, "Multiple introduction requests"), and
* robustness of DHT-based routing under churn — "by using multiple score
  managers this impact is significantly reduced" (§3).

:class:`ScoreManagerAssignment` resolves the current managers for a peer,
together with the ring keys and arcs the resolution depends on, so a cache
of assignments can tell which entries a ring change can move.
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
    #: Exclude a peer from managing its own reputation (the realistic choice;
    #: can be disabled for tiny test rings where exclusion is impossible).
    exclude_self: bool = True
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
        caller always sees each manager once.
        """
        return self.assignment_details(peer_id)[0]

    def assignment_details(
        self, peer_id: PeerId
    ) -> tuple[list[PeerId], tuple[int, ...], tuple[tuple[int, int, int], ...] | None]:
        """Managers, dependency keys and the clockwise arcs they were picked from.

        The second element lists the keys of every candidate node the
        selection looked at (the chosen managers and any self-excluded
        subject node).  A membership change can only alter the assignment if
        it lands on — or immediately in front of — one of these nodes, which
        is what lets the reputation store evict cache entries selectively
        (see :meth:`repro.rocq.store.ReputationStore.membership_changed`).

        The third element holds one ``(replica_key, first_candidate_key,
        last_candidate_key)`` triple per replica: the candidate list of that
        replica changes under a **join** exactly when the new node's key
        lands inside the clockwise interval ``(replica_key,
        last_candidate_key]``.  The first-candidate key splits that window
        in two — a join landing in ``(replica_key, first_candidate_key]``
        displaces the *first* candidate (so the chosen manager can change),
        while one landing in ``(first_candidate_key, last_candidate_key]``
        only displaces the second.  The reputation store uses the windows
        both to skip revalidating cached subjects whose arcs a join did not
        touch and to patch second-candidate-only changes in place.  ``None``
        when the ring was too small to produce a full candidate list (then
        every join can alter the assignment and callers must always
        revalidate).
        """
        ring = self.ring
        if len(ring) == 0:
            return [], (), None
        managers: list[PeerId] = []
        seen: set[PeerId] = set()
        dependency_keys: list[int] = []
        dependency_seen: set[int] = set()
        windows: list[tuple[int, int, int]] = []
        windows_valid = True
        if self.exclude_self:
            # At most one candidate (the subject itself) can be skipped, so
            # two successors per replica key are always enough to pick a
            # manager.  ``ring.successor_pair`` is inlined over the ring's
            # sorted key list: this resolution runs once per cached subject
            # per membership change on churn-heavy workloads, and the
            # per-replica call overhead was the single largest cost left in
            # it.  Replica keys are SHA-1-derived and always canonical, so
            # no modulo is needed before the bisect.
            sorted_keys = ring._sorted_keys
            nodes_by_key = ring._nodes_by_key
            total = len(sorted_keys)
            skip_self = total > 1
            for key in self.replica_keys_for(peer_id):
                index = bisect_left(sorted_keys, key)
                if index == total:
                    index = 0
                first_key = sorted_keys[index]
                first = nodes_by_key[first_key]
                if first_key not in dependency_seen:
                    dependency_keys.append(first_key)
                    dependency_seen.add(first_key)
                if total == 1:
                    # Single-node ring: no full candidate list, no window.
                    windows_valid = False
                    chosen = first.peer_id
                else:
                    index += 1
                    second_key = sorted_keys[index if index < total else 0]
                    if second_key not in dependency_seen:
                        dependency_keys.append(second_key)
                        dependency_seen.add(second_key)
                    windows.append((key, first_key, second_key))
                    if skip_self and first.peer_id == peer_id:
                        chosen = nodes_by_key[second_key].peer_id
                    else:
                        chosen = first.peer_id
                if chosen not in seen:
                    managers.append(chosen)
                    seen.add(chosen)
        else:
            successor_of = ring.successor_of
            for key in self.replica_keys_for(peer_id):
                node = successor_of(key)
                node_key = node.key
                if node_key not in dependency_seen:
                    dependency_keys.append(node_key)
                    dependency_seen.add(node_key)
                # Sole candidate: first and last coincide, so the store's
                # second-candidate patch path can never trigger for it.
                windows.append((key, node_key, node_key))
                chosen = node.peer_id
                if chosen not in seen:
                    managers.append(chosen)
                    seen.add(chosen)
        return (
            managers,
            tuple(dependency_keys),
            tuple(windows) if windows_valid else None,
        )
