"""Deterministic random-number stream management.

Every stochastic component of the simulator (arrival process, topology
sampling, behaviour decisions, introducer errors, ...) draws from its own
named child stream derived from a single master seed.  This makes runs fully
reproducible while keeping the different sources of randomness statistically
independent: changing how many draws one component makes does not perturb the
sequence seen by any other component.

Each stream is a :class:`Stream`, a pure-Python PCG64 generator that is
seeded, draws and reports its state exactly as
``numpy.random.default_rng(seed)`` does for the draws the simulator and the
scenario fuzzer make: ``random()``, ``integers``, ``uniform``, ``choice``
and ``exponential(scale)``.  Child seeds are hashed by numpy's
``SeedSequence`` algorithm.  The package therefore needs no numpy at all;
the tests use numpy as the reference the stream must match draw for draw.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, cycle, islice
from typing import Any, Sequence

from ._ziggurat import EXP_FE, EXP_KE, EXP_WE

__all__ = ["RandomStreams", "Stream", "derive_seed"]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_TWO32 = 1 << 32

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool size 4.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53
_ZIGGURAT_EXP_R = 7.6971174701310497140446280481


def _seed_state(entropy: list[int], n_words: int) -> list[int]:
    """SeedSequence(entropy).generate_state(n_words, uint64) for 32-bit words."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    words = []
    for value in islice(cycle(pool), 2 * n_words):
        value ^= hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> _XSHIFT))
    return [words[i] | words[i + 1] << 32 for i in range(0, 2 * n_words, 2)]


def derive_seed(master_seed: int, *tokens: object) -> int:
    """Derive a child seed from ``master_seed`` and a sequence of tokens.

    The derivation is deterministic and insensitive to Python's per-process
    hash randomisation: tokens are converted to their ``repr`` and folded into
    a ``SeedSequence`` entropy pool, giving the seed numpy's
    ``SeedSequence(material).generate_state(1, uint64)`` gives.

    Parameters
    ----------
    master_seed:
        The experiment-level seed.
    tokens:
        Arbitrary labels (strings, ints, tuples) identifying the consumer.

    Returns
    -------
    int
        A 63-bit integer usable as a seed for another generator.
    """
    material = [master_seed & _MASK32]
    for token in tokens:
        text = repr(token).encode("utf-8")
        # Fold the bytes of the token into 32-bit words.
        for start in range(0, len(text), 4):
            chunk = text[start : start + 4]
            material.append(int.from_bytes(chunk, "little"))
    return _seed_state(material, 1)[0] & 0x7FFFFFFFFFFFFFFF


class Stream:
    """A PCG64 stream that draws as ``numpy.random.default_rng(seed)`` does.

    ``random()``, ``integers``, ``uniform``, ``choice`` and
    ``exponential(scale)`` return the values numpy's ``Generator`` returns
    for the same calls in the same order, as Python ``int`` and ``float``,
    and :attr:`state` equals numpy's ``bit_generator.state``.

    Examples
    --------
    >>> stream = Stream(7)
    >>> 0.0 <= stream.random() < 1.0
    True
    >>> 0 <= stream.integers(10) < 10
    True
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        # An int seed enters SeedSequence as its little-endian 32-bit words.
        entropy = [seed & _MASK32]
        seed >>= 32
        while seed:
            entropy.append(seed & _MASK32)
            seed >>= 32
        v0, v1, v2, v3 = _seed_state(entropy, 4)
        inc = ((v2 << 64 | v3) << 1 | 1) & _MASK128
        # pcg64 srandom: step from 0, add the initial state, step again.
        self._state = ((inc + (v0 << 64 | v1)) * _PCG64_MULT + inc) & _MASK128
        self._inc = inc
        # numpy's cache of the unused high half of a 64-bit word.
        self._has_uint32 = 0
        self._uinteger = 0

    @property
    def state(self) -> dict:
        """The state dict numpy's ``PCG64.state`` reports at this position."""
        return {
            "bit_generator": "PCG64",
            "state": {"state": self._state, "inc": self._inc},
            "has_uint32": self._has_uint32,
            "uinteger": self._uinteger,
        }

    def _next64(self) -> int:
        state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        self._state = state
        word = (state >> 64 ^ state) & _MASK64
        # 64-bit rotate right by the top six bits of the state.
        return ((word | word << 64) >> (state >> 122)) & _MASK64

    def _next32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        word = self._next64()
        self._has_uint32 = 1
        self._uinteger = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """A float in ``[0, 1)`` with 53 random bits."""
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def integers(self, low: int, high: int | None = None) -> int:
        """An int in ``[low, high)``, or in ``[0, low)`` when ``high`` is None.

        Lemire's method on 32-bit draws.  The range must hold between 1 and
        ``2**32`` values; numpy switches to 64-bit draws above that, which no
        caller needs.
        """
        if high is not None:
            return low + self.integers(high - low)
        high = low
        if not 1 < high <= _TWO32:
            if high == 1:
                return 0
            raise ValueError(f"high must be in [1, 2**32], got {high}")
        m = self._next32() * high
        if (m & _MASK32) < high:
            threshold = (_TWO32 - high) % high
            while (m & _MASK32) < threshold:
                m = self._next32() * high
        return m >> 32

    def uniform(self, low: float, high: float) -> float:
        """A float in ``[low, high)``."""
        return low + (high - low) * self.random()

    def choice(self, options: Sequence[Any], p: Sequence[float] | None = None) -> Any:
        """One of ``options``: uniformly, or with probabilities ``p``."""
        if p is None:
            return options[self.integers(len(options))]
        cumulative = list(accumulate(p))
        cdf = [value / cumulative[-1] for value in cumulative]
        return options[bisect_right(cdf, self.random())]

    def exponential(self, scale: float = 1.0) -> float:
        """An exponential draw with mean ``scale`` (numpy's ziggurat)."""
        while True:
            ri = self._next64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * EXP_WE[idx]
            if ri < EXP_KE[idx]:
                return scale * x
            if idx == 0:
                return scale * (_ZIGGURAT_EXP_R - math.log1p(-self.random()))
            edge = EXP_FE[idx]
            if (EXP_FE[idx - 1] - edge) * self.random() + edge < math.exp(-x):
                return scale * x


@dataclass
class RandomStreams:
    """A registry of named, independent random streams.

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> arrivals = streams.stream("arrivals")
    >>> behaviour = streams.stream("behaviour")
    >>> arrivals is streams.stream("arrivals")
    True
    >>> arrivals.random() != behaviour.random()
    True
    """

    seed: int = 0
    _streams: dict[str, Stream] = field(default_factory=dict, repr=False)

    def stream(self, name: str) -> Stream:
        """Return (creating on first use) the stream for ``name``."""
        generator = self._streams.get(name)
        if generator is None:
            generator = Stream(derive_seed(self.seed, name))
            self._streams[name] = generator
        return generator

    def names(self) -> list[str]:
        """Return the names of all streams created so far (sorted)."""
        return sorted(self._streams)
