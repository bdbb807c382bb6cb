"""Durable reputation storage: drivers, checkpoint/restore, persist facet.

The package persists the simulator's reputation state beyond one process:

* :class:`ReputationStore` — the abstract store interface, with an
  in-memory driver (:class:`MemoryReputationStore`) and a sqlite driver
  (:class:`SqliteReputationStore`, WAL mode, single-writer transactions);
  :func:`make_store` opens either from a ``memory://``/``sqlite://`` URL or
  a bare path;
* :class:`BackendPersistence` — binds a backend to a store key: checkpoint
  on finalize (full ``export_state()`` payload stamped with
  ``state_digest()`` plus a queryable per-peer table), digest-verified
  restore on construction;
* :class:`PersistSpec` — the ``persist=...`` facet of
  :class:`~repro.api.request.RunRequest`, carried through
  :class:`~repro.parallel.specs.RunSpec` like the trace facet.
"""

from pathlib import Path

from ..errors import PersistenceError
from .base import PeerRecord, ReputationStore, StateSnapshot, clamp_score
from .memory import MemoryReputationStore, open_memory_store
from .persistence import BackendPersistence, derive_peer_records
from .spec import PersistSpec
from .sqlite import SqliteReputationStore

__all__ = [
    "BackendPersistence",
    "MemoryReputationStore",
    "PeerRecord",
    "PersistSpec",
    "ReputationStore",
    "SqliteReputationStore",
    "StateSnapshot",
    "clamp_score",
    "derive_peer_records",
    "make_store",
]


def make_store(url: str | Path) -> ReputationStore:
    """Open (and initialise) a store from a driver URL.

    ``memory://`` opens a fresh in-memory store; ``memory://name`` a
    process-wide shared one (so an in-process service and its submitter see
    the same state).  ``sqlite://path`` — and any bare path, ``Path``
    included — opens the sqlite driver.  Any other ``driver://`` prefix
    raises :class:`~repro.errors.PersistenceError`.
    """
    text = str(url)
    driver, separator, rest = text.partition("://")
    if not separator:
        driver, rest = "sqlite", text
    store: ReputationStore
    if driver == "memory":
        store = open_memory_store(rest)
    elif driver == "sqlite":
        store = SqliteReputationStore(rest)
    else:
        raise PersistenceError(
            f"unknown store driver {driver!r} (known: memory, sqlite)"
        )
    store.initialize()
    return store
