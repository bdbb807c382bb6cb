"""Deterministic random-number stream management.

Every stochastic component of the simulator (arrival process, topology
sampling, behaviour decisions, introducer errors, ...) draws from its own
named child stream derived from a single master seed.  This makes runs fully
reproducible while keeping the different sources of randomness statistically
independent: changing how many draws one component makes does not perturb the
sequence seen by any other component.

The implementation uses :class:`numpy.random.SeedSequence` spawning, the
mechanism numpy recommends for parallel and multi-stream reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RandomStreams", "derive_seed"]


def derive_seed(master_seed: int, *tokens: object) -> int:
    """Derive a child seed from ``master_seed`` and a sequence of tokens.

    The derivation is deterministic and insensitive to Python's per-process
    hash randomisation: tokens are converted to their ``repr`` and folded into
    a :class:`numpy.random.SeedSequence` entropy pool.

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
    material = [master_seed & 0xFFFFFFFF]
    for token in tokens:
        text = repr(token).encode("utf-8")
        # Fold the bytes of the token into 32-bit words.
        for start in range(0, len(text), 4):
            chunk = text[start : start + 4]
            material.append(int.from_bytes(chunk, "little"))
    seq = np.random.SeedSequence(material)
    return int(seq.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFFFFFFFFFF)


@dataclass
class RandomStreams:
    """A registry of named, independent random generators.

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> arrivals = streams.stream("arrivals")
    >>> behaviour = streams.stream("behaviour")
    >>> arrivals is streams.stream("arrivals")
    True
    >>> float(arrivals.random()) != float(behaviour.random())
    True
    """

    seed: int = 0
    _streams: dict[str, np.random.Generator] = field(default_factory=dict, repr=False)

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        generator = self._streams.get(name)
        if generator is None:
            child_seed = derive_seed(self.seed, name)
            generator = np.random.default_rng(child_seed)
            self._streams[name] = generator
        return generator

    def names(self) -> list[str]:
        """Return the names of all streams created so far (sorted)."""
        return sorted(self._streams)
