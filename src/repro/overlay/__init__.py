"""Structured overlay (DHT) substrate.

The paper assumes "the existence of a structured overlay that uses
distributed hash tables for routing and for selecting score managers that
keep track of all feedback pertaining to a peer" (§2).  This package provides
that substrate: a Chord-style ring of overlay nodes with consistent hashing,
iterative key lookup, per-peer score-manager assignment with ``numSM``
independent replicas, and a structured description of each join or leave
(:class:`MembershipChange`) that caches of assignments follow.
Records are not migrated when a score manager departs: its replicas are
simply no longer consulted.
"""

from .hashing import ring_distance, in_interval
from .membership import MembershipChange, MembershipKind
from .node import OverlayNode
from .ring import ChordRing
from .routing import RoutingResult, lookup
from .assignment import ScoreManagerAssignment

__all__ = [
    "ring_distance",
    "in_interval",
    "MembershipChange",
    "MembershipKind",
    "OverlayNode",
    "ChordRing",
    "RoutingResult",
    "lookup",
    "ScoreManagerAssignment",
]
