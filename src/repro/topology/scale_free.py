"""Scale-free (power-law) interaction topology.

The paper's second topology chooses respondents "according to a power-law".
We realise it with an incrementally grown preferential-attachment
(Barabási–Albert) graph: every admitted peer attaches ``attachment`` edges to
existing members with probability proportional to their degree, and the
probability of a member being chosen as respondent/introducer is proportional
to its degree.  This yields the heavy-tailed popularity distribution the
paper intends while supporting O(1) sampling.

Sampling uses the classic *repeated endpoints* trick: every time an edge
(u, v) is created, both endpoints are appended to a list; drawing a uniform
index from that list is exactly degree-proportional sampling.
"""

from __future__ import annotations

from ..ids import PeerId
from ..rng import Stream
from .base import TopologyModel

__all__ = ["ScaleFreeTopology"]


class ScaleFreeTopology(TopologyModel):
    """Preferential-attachment topology with degree-proportional sampling."""

    def __init__(
        self,
        attachment: int = 2,
        exponent: float = 1.0,
        rng: Stream | None = None,
    ) -> None:
        """Create an empty scale-free topology.

        Parameters
        ----------
        attachment:
            Number of edges each new member attaches to existing members
            (the Barabási–Albert ``m`` parameter).
        exponent:
            Preferential-attachment strength.  1.0 is classic BA (weight
            proportional to degree); 0.0 degenerates to uniform attachment.
            Values other than 1.0 are applied only at attachment time; the
            sampling weight always remains the realised degree, matching the
            paper's "probability distributed according to a power-law".
        rng:
            Generator used when wiring attachment edges.  A fixed-seed
            generator is created when omitted so graph growth is
            deterministic and independent of process hash randomisation.
        """
        if attachment < 1:
            raise ValueError("attachment must be >= 1")
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        self.attachment = attachment
        self.exponent = exponent
        self._attach_rng = rng if rng is not None else Stream(977_231)
        self._members: list[PeerId] = []
        self._positions: dict[PeerId, int] = {}
        self._degrees: dict[PeerId, int] = {}
        # Degree-proportional sampling pool: each edge contributes both ends.
        self._endpoint_pool: list[PeerId] = []
        # Number of departed-peer entries still polluting the pool; when the
        # fraction grows too high the pool is compacted.
        self._stale_entries = 0

    # ------------------------------------------------------------------ #
    # Membership                                                           #
    # ------------------------------------------------------------------ #
    def add_member(self, peer_id: PeerId) -> None:
        if peer_id in self._positions:
            return
        self._positions[peer_id] = len(self._members)
        self._members.append(peer_id)
        self._degrees[peer_id] = 0
        self._attach(peer_id)

    def remove_member(self, peer_id: PeerId) -> None:
        position = self._positions.pop(peer_id, None)
        if position is None:
            return
        last = self._members[-1]
        if last != peer_id:
            self._members[position] = last
            self._positions[last] = position
        self._members.pop()
        self._stale_entries += self._degrees.pop(peer_id, 0)
        self._maybe_compact()

    def __contains__(self, peer_id: PeerId) -> bool:
        return peer_id in self._positions

    def __len__(self) -> int:
        return len(self._members)

    # ------------------------------------------------------------------ #
    # Sampling                                                             #
    # ------------------------------------------------------------------ #
    def sample_member(
        self, rng: Stream, exclude: PeerId | None = None
    ) -> PeerId | None:
        if not self._members:
            return None
        if len(self._members) == 1:
            only = self._members[0]
            return None if only == exclude else only
        pool = self._endpoint_pool
        if pool:
            for _ in range(64):
                candidate = pool[rng.integers(len(pool))]
                if candidate != exclude and candidate in self._positions:
                    return candidate
        # Pool unusable (tiny graph or heavy churn): fall back to uniform.
        for _ in range(64):
            candidate = self._members[rng.integers(len(self._members))]
            if candidate != exclude:
                return candidate
        return next((m for m in self._members if m != exclude), None)

    # ------------------------------------------------------------------ #
    # Graph structure                                                      #
    # ------------------------------------------------------------------ #
    def degree(self, peer_id: PeerId) -> int:
        """Current degree of ``peer_id`` (0 if unknown)."""
        return self._degrees.get(peer_id, 0)

    # ------------------------------------------------------------------ #
    # Internal                                                             #
    # ------------------------------------------------------------------ #
    def _attach(self, peer_id: PeerId) -> None:
        """Attach a new member to up to ``attachment`` existing members."""
        # ``add_member`` appended ``peer_id`` immediately before this call,
        # so the number of *other* members is len - 1 — no need to build the
        # filtered list (O(members) per join) just to count it.
        members = self._members
        if len(members) <= 1:
            # First member: give it a self-weight so it can be sampled.
            self._degrees[peer_id] = 1
            self._endpoint_pool.append(peer_id)
            return
        rng = self._attach_rng
        targets: set[PeerId] = set()
        wanted = min(self.attachment, len(members) - 1)
        attempts = 0
        while len(targets) < wanted and attempts < 32 * wanted:
            attempts += 1
            target = self._preferential_target(rng, exclude=peer_id)
            if target is not None and target != peer_id:
                targets.add(target)
        if len(targets) < wanted:
            # Guarantee connectivity even if preferential draws kept colliding.
            for fallback in members:
                if fallback == peer_id:
                    continue
                targets.add(fallback)
                if len(targets) >= wanted:
                    break
        for target in targets:
            self._add_edge(peer_id, target)

    def _preferential_target(self, rng: Stream, exclude: PeerId) -> PeerId | None:
        if self.exponent == 0.0 or not self._endpoint_pool:
            candidates = [m for m in self._members if m != exclude]
            if not candidates:
                return None
            return candidates[rng.integers(len(candidates))]
        pool = self._endpoint_pool
        for _ in range(32):
            candidate = pool[rng.integers(len(pool))]
            if candidate != exclude and candidate in self._positions:
                return candidate
        return None

    def _add_edge(self, u: PeerId, v: PeerId) -> None:
        self._degrees[u] = self._degrees.get(u, 0) + 1
        self._degrees[v] = self._degrees.get(v, 0) + 1
        self._endpoint_pool.append(u)
        self._endpoint_pool.append(v)

    def _maybe_compact(self) -> None:
        """Rebuild the endpoint pool when too many entries refer to departed peers."""
        if not self._endpoint_pool:
            return
        if self._stale_entries * 2 < len(self._endpoint_pool):
            return
        self._endpoint_pool = [
            endpoint for endpoint in self._endpoint_pool if endpoint in self._positions
        ]
        self._stale_entries = 0
