"""Structured overlay (DHT) substrate.

The paper assumes "the existence of a structured overlay that uses
distributed hash tables for routing and for selecting score managers that
keep track of all feedback pertaining to a peer" (§2).  This package provides
that substrate: a Chord-style ring of overlay nodes with consistent hashing,
per-peer score-manager assignment with ``numSM`` independent replicas, and a
structured description of each join or leave (:class:`MembershipChange`) that
caches of assignments follow.  The simulator delivers messages instantly, so
no experiment needs a routing walk: a key's owner is read off the ring.
Records are not migrated when a score manager departs: its replicas are
simply no longer consulted.
"""

from .membership import MembershipChange, MembershipKind
from .node import OverlayNode
from .ring import ChordRing
from .assignment import ScoreManagerAssignment

__all__ = [
    "MembershipChange",
    "MembershipKind",
    "OverlayNode",
    "ChordRing",
    "ScoreManagerAssignment",
]
