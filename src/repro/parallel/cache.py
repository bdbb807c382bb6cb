"""Persistent cache of simulation runs keyed by (parameter fingerprint, seed).

The cache is a thin layer over :class:`~repro.analysis.storage.ResultStore`:
one JSON document per run, named after the parameter fingerprint and the
seed.  Because the key depends only on *what* would be simulated — never on
which experiment asked for it — any two sweeps that resolve to the same
(params, seed) pair share work, regardless of experiment ordering or of
whether they run in the same process, the same invocation, or days apart.
"""

from __future__ import annotations

from pathlib import Path

from ..analysis.storage import ResultStore
from ..config import SimulationParameters
from ..errors import ReproError
from ..metrics.summary import RunSummary
from .specs import params_fingerprint

__all__ = ["CACHE_VERSION", "RunCache"]

#: Version tag folded into every cache key.  Bump it whenever the simulation
#: engine's semantics change (new dynamics, bug fixes that alter results), so
#: documents computed by older code are never served as current results.
CACHE_VERSION = 2


class RunCache:
    """Stores and retrieves :class:`RunSummary` objects by (params, seed).

    Parameters
    ----------
    store:
        A :class:`ResultStore`, or a directory path one is created over.

    Attributes
    ----------
    hits / misses:
        In-process counters of :meth:`get` outcomes, for tests and progress
        reporting.
    """

    def __init__(self, store: ResultStore | Path | str) -> None:
        if not isinstance(store, ResultStore):
            store = ResultStore(Path(store))
        self.store = store
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(params: SimulationParameters, seed: int) -> str:
        """The document name caching a run of ``params`` with ``seed``."""
        return f"run-v{CACHE_VERSION}-{params_fingerprint(params)}-{seed}"

    def get(self, params: SimulationParameters, seed: int) -> RunSummary | None:
        """Return the cached summary for (params, seed), or ``None``.

        A document that fails to load (truncated file, schema drift from an
        older version) is treated as a miss rather than an error, so a stale
        cache directory can never break an experiment run.
        """
        name = self.key_for(params, seed)
        if not self.store.exists(name):
            self.misses += 1
            return None
        try:
            summary = RunSummary.from_dict(self.store.load_json(name))
        except (AttributeError, KeyError, TypeError, ValueError, ReproError):
            # Malformed JSON, missing fields, wrong shapes, or parameters
            # that no longer validate (ConfigurationError) — all schema
            # drift, all misses.
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def put(self, params: SimulationParameters, seed: int, summary: RunSummary) -> Path:
        """Persist ``summary`` under the (params, seed) key."""
        return self.store.save_json(self.key_for(params, seed), summary.to_dict())
