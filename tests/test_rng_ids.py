"""Tests for repro.rng (stream management) and repro.ids (identifiers).

numpy is the reference the pure-Python :class:`repro.rng.Stream` must match
draw for draw: the simulation's golden digests were recorded on numpy's
``default_rng`` streams.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.ids import (
    KEY_SPACE_SIZE,
    PeerIdAllocator,
    hash_to_key,
    peer_key,
    replica_key,
)
from repro.rng import RandomStreams, Stream, derive_seed


def _draws(stream: Stream, count: int) -> list[float]:
    return [stream.random() for _ in range(count)]


def _numpy_derive_seed(master_seed: int, *tokens: object) -> int:
    """``derive_seed`` as written on numpy's ``SeedSequence``."""
    material = [master_seed & 0xFFFFFFFF]
    for token in tokens:
        text = repr(token).encode("utf-8")
        for start in range(0, len(text), 4):
            material.append(int.from_bytes(text[start : start + 4], "little"))
    state = np.random.SeedSequence(material).generate_state(1, dtype=np.uint64)
    return int(state[0] & 0x7FFFFFFFFFFFFFFF)


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
        first = _draws(RandomStreams(seed=3).stream("arrivals"), 5)
        second = _draws(RandomStreams(seed=3).stream("arrivals"), 5)
        assert np.allclose(first, second)

    def test_different_names_give_independent_sequences(self):
        streams = RandomStreams(seed=3)
        a = _draws(streams.stream("a"), 100)
        b = _draws(streams.stream("b"), 100)
        assert not np.allclose(a, b)

    def test_consuming_one_stream_does_not_affect_another(self):
        reference = _draws(RandomStreams(seed=9).stream("b"), 10)
        streams = RandomStreams(seed=9)
        _draws(streams.stream("a"), 1000)  # consume a lot from another stream
        assert np.allclose(_draws(streams.stream("b"), 10), reference)

    def test_names_and_reset(self):
        streams = RandomStreams(seed=0)
        streams.stream("z")
        streams.stream("a")
        assert streams.names() == ["a", "z"]


#: ``integers`` bounds for the interleaved draws: 1 draws nothing, 2**32
#: returns a whole 32-bit word, Lemire's method rejects almost half of its
#: draws at 2**31 + 1, and the rest are small bounds, a population size and
#: bounds near the top of the 32-bit range.
_HIGHS = (1, 2, 7, 5000, 2**31 - 1, 2**31 + 1, 2**32 - 1, 2**32)
_SCALES = (1.0, 0.25, 5.0, 20.0)


class TestStreamMatchesNumpy:
    @pytest.mark.parametrize(
        "master_seed, tokens",
        [
            (0, ()),
            (0, ("arrivals",)),
            (1, ("behaviour",)),
            (7, ("sweep", 3, ("point", 0.25))),
            (2**32 + 5, ("transactions",)),
            (2**63 - 1, ("introducer_choice", -4, None)),
            (123, ("a-token-long-enough-to-overflow-the-pool" * 3,)),
        ],
    )
    def test_derive_seed_matches_seed_sequence(self, master_seed, tokens):
        assert derive_seed(master_seed, *tokens) == _numpy_derive_seed(
            master_seed, *tokens
        )

    @pytest.mark.parametrize(
        "seed", [0, 1, 12345, 977_231, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 3]
    )
    def test_fresh_state_matches_bit_generator(self, seed):
        reference = np.random.default_rng(seed).bit_generator.state
        assert Stream(seed).state == reference
        assert repr(Stream(seed).state) == repr(reference)

    def test_interleaved_draws_match_default_rng(self):
        for seed in range(100):
            stream = Stream(seed)
            reference = np.random.default_rng(seed)
            plan = random.Random(seed)
            ours, theirs = [], []
            for _ in range(3000):
                kind = plan.randrange(3)
                if kind == 0:
                    ours.append(stream.random())
                    theirs.append(reference.random())
                elif kind == 1:
                    high = plan.choice(_HIGHS)
                    ours.append(stream.integers(high))
                    theirs.append(int(reference.integers(high)))
                else:
                    scale = plan.choice(_SCALES)
                    ours.append(stream.exponential(scale))
                    theirs.append(reference.exponential(scale))
            assert ours == theirs, f"seed {seed}"
            assert repr(stream.state) == repr(reference.bit_generator.state)

    def test_million_exponential_draws_match(self):
        # Enough draws to reach the ziggurat's base-layer tail (idx 0, about
        # 450 per million) and its wedge test (about 1% of draws).
        stream = Stream(2024)
        reference = np.random.default_rng(2024)
        ours = [stream.exponential() for _ in range(1_000_000)]
        assert ours == reference.exponential(size=1_000_000).tolist()
        assert max(ours) > 7.6971174701310497  # the tail was drawn from
        assert repr(stream.state) == repr(reference.bit_generator.state)

    def test_full_32_bit_range_matches(self):
        for seed in range(50):
            stream = Stream(seed)
            reference = np.random.default_rng(seed)
            ours = [stream.integers(2**32) for _ in range(2000)]
            assert ours == reference.integers(2**32, size=2000).tolist()

    @pytest.mark.parametrize("high", [0, -1, 2**32 + 1])
    def test_integers_outside_the_32_bit_path_raise(self, high):
        with pytest.raises(ValueError):
            Stream(1).integers(high)

    def test_fuzzer_draws_match_default_rng(self):
        """The scenario fuzzer's draws: bounded integers, uniforms, choices."""
        bounds = ((200, 1201), (1, 9), (0, 2**31), (0, 2), (-5, 5), (7, 8))
        ranges = ((0.5, 2.5), (-2.3, -0.8), (0.0, 0.9), (0.3, 0.3), (-1.0, 5.0))
        options = (["random", "scale_free"], [50.0, 100.0, 250.0, 500.0], ["x"])
        weights = ([0.55, 0.2, 0.15, 0.1], [0.0, 1.0], [1.0], [0.3, 0.1, 0.0, 0.6])
        for seed in range(100):
            stream = Stream(seed)
            reference = np.random.default_rng(seed)
            plan = random.Random(seed)
            ours, theirs = [], []
            for _ in range(2000):
                kind = plan.randrange(5)
                if kind == 0:
                    low, high = plan.choice(bounds)
                    ours.append(stream.integers(low, high))
                    theirs.append(int(reference.integers(low, high)))
                elif kind == 1:
                    low, high = plan.choice(ranges)
                    ours.append(stream.uniform(low, high))
                    theirs.append(float(reference.uniform(low, high)))
                elif kind == 2:
                    choices = plan.choice(options)
                    ours.append(stream.choice(choices))
                    theirs.append(reference.choice(choices).item())
                elif kind == 3:
                    p = plan.choice(weights)
                    choices = list(range(len(p)))
                    ours.append(stream.choice(choices, p=p))
                    theirs.append(int(reference.choice(choices, p=p)))
                else:
                    ours.append(stream.random())
                    theirs.append(reference.random())
            assert ours == theirs, f"seed {seed}"
            assert repr(stream.state) == repr(reference.bit_generator.state)


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
