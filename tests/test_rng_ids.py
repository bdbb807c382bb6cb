"""Tests for repro.rng (stream management) and repro.ids (identifiers)."""

from __future__ import annotations

import numpy as np

from repro.ids import (
    KEY_SPACE_SIZE,
    PeerIdAllocator,
    hash_to_key,
    peer_key,
    replica_key,
)
from repro.rng import RandomStreams, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "arrivals") == derive_seed(1, "arrivals")

    def test_differs_by_token(self):
        assert derive_seed(1, "arrivals") != derive_seed(1, "behaviour")

    def test_differs_by_master_seed(self):
        assert derive_seed(1, "arrivals") != derive_seed(2, "arrivals")

    def test_accepts_mixed_tokens(self):
        seed = derive_seed(7, "sweep", 3, ("point", 0.25))
        assert isinstance(seed, int)
        assert seed >= 0

    def test_fits_in_63_bits(self):
        for token in range(50):
            assert 0 <= derive_seed(123, token) < 2**63


class TestRandomStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(seed=3)
        assert streams.stream("a") is streams.stream("a")

    def test_streams_are_reproducible_across_instances(self):
        first = RandomStreams(seed=3).stream("arrivals").random(5)
        second = RandomStreams(seed=3).stream("arrivals").random(5)
        assert np.allclose(first, second)

    def test_different_names_give_independent_sequences(self):
        streams = RandomStreams(seed=3)
        a = streams.stream("a").random(100)
        b = streams.stream("b").random(100)
        assert not np.allclose(a, b)

    def test_consuming_one_stream_does_not_affect_another(self):
        reference = RandomStreams(seed=9).stream("b").random(10)
        streams = RandomStreams(seed=9)
        streams.stream("a").random(1000)  # consume a lot from another stream
        assert np.allclose(streams.stream("b").random(10), reference)

    def test_names_and_reset(self):
        streams = RandomStreams(seed=0)
        streams.stream("z")
        streams.stream("a")
        assert streams.names() == ["a", "z"]


class TestHashing:
    def test_hash_to_key_in_range(self):
        for payload in (b"", b"abc", b"peer:12345"):
            key = hash_to_key(payload)
            assert 0 <= key < KEY_SPACE_SIZE

    def test_peer_key_deterministic_and_distinct(self):
        assert peer_key(1) == peer_key(1)
        assert peer_key(1) != peer_key(2)

    def test_replica_keys_distinct_across_replicas(self):
        keys = {replica_key(42, index) for index in range(8)}
        assert len(keys) == 8

    def test_replica_keys_distinct_across_peers(self):
        assert replica_key(1, 0) != replica_key(2, 0)


class TestPeerIdAllocator:
    def test_allocates_consecutive_ids(self):
        allocator = PeerIdAllocator()
        assert [allocator.allocate() for _ in range(4)] == [0, 1, 2, 3]

    def test_next_id_tracks_allocations(self):
        allocator = PeerIdAllocator()
        for _ in range(3):
            allocator.allocate()
        assert allocator.next_id == 3
        assert allocator.allocate() == 3

    def test_never_reuses_ids(self):
        allocator = PeerIdAllocator()
        seen = {allocator.allocate() for _ in range(100)}
        assert len(seen) == 100

    def test_iteration_yields_fresh_ids(self):
        allocator = PeerIdAllocator()
        iterator = iter(allocator)
        assert [next(iterator) for _ in range(3)] == [0, 1, 2]
