"""Tests for the Chord-style overlay ring."""

from __future__ import annotations

import pytest

from repro.errors import UnknownPeerError
from repro.ids import KEY_SPACE_SIZE
from repro.overlay.ring import ChordRing


class TestChordRing:
    def test_join_and_contains(self):
        ring = ChordRing()
        ring.join(1)
        assert 1 in ring
        assert len(ring) == 1

    def test_join_is_idempotent(self):
        ring = ChordRing()
        node_first = ring.join(1)
        node_second = ring.join(1)
        assert node_first is node_second
        assert len(ring) == 1

    def test_leave_removes_node(self, ring_with_peers: ChordRing):
        ring_with_peers.leave(3)
        assert 3 not in ring_with_peers
        assert len(ring_with_peers) == 9

    def test_leave_unknown_peer_raises(self):
        ring = ChordRing()
        with pytest.raises(UnknownPeerError):
            ring.leave(99)

    def test_successor_of_own_key_is_self(self, ring_with_peers: ChordRing):
        for peer_id in range(10):
            node = ring_with_peers.node_for_peer(peer_id)
            assert ring_with_peers.successor_of(node.key).peer_id == peer_id

    def test_successor_is_clockwise_nearest(self, ring_with_peers: ChordRing):
        keys = sorted(
            ring_with_peers.node_for_peer(peer_id).key for peer_id in range(10)
        )
        probe = (keys[0] + 1) % KEY_SPACE_SIZE
        expected_key = keys[1] if keys[0] + 1 <= keys[1] else keys[0]
        assert ring_with_peers.successor_of(probe).key == expected_key

    def test_neighbour_pointers_consistent(self, ring_with_peers: ChordRing):
        for peer_id in range(10):
            node = ring_with_peers.node_for_peer(peer_id)
            successor = ring_with_peers._nodes_by_key[node.successor]
            assert successor.predecessor == node.key

    def test_empty_ring_successor_raises(self):
        with pytest.raises(UnknownPeerError):
            ChordRing().successor_of(5)

    def test_single_node_is_its_own_neighbour(self):
        ring = ChordRing()
        node = ring.join(7)
        assert node.successor == node.key
        assert node.predecessor == node.key

