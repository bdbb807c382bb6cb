"""Durable reputation storage: the store, checkpoint/restore, persist facet.

The package persists the simulator's reputation state beyond one process:

* :class:`SqliteReputationStore` — the one store (WAL mode, single-writer
  transactions).  :func:`make_store` opens it from a URL: ``sqlite://path``
  or a bare path for a database file, ``memory://`` or ``memory://name``
  for sqlite's in-memory database;
* :class:`BackendPersistence` — binds a backend to a store key: checkpoint
  on finalize (the backend's ``encode_state()`` text, stamped with
  ``state_digest()``, plus a queryable per-peer table), digest-verified
  restore on construction;
* :class:`PersistSpec` — the ``persist=...`` facet of
  :class:`~repro.api.request.RunRequest`, carried through
  :class:`~repro.parallel.specs.RunSpec` like the trace facet.
"""

import atexit
import threading
from pathlib import Path

from ..errors import PersistenceError
from .base import PeerRecord, StateSnapshot, clamp_score
from .persistence import BackendPersistence, derive_peer_records
from .spec import PersistSpec
from .sqlite import SqliteReputationStore

__all__ = [
    "BackendPersistence",
    "PeerRecord",
    "PersistSpec",
    "SqliteReputationStore",
    "StateSnapshot",
    "clamp_score",
    "derive_peer_records",
    "make_store",
]


def make_store(url: str | Path) -> SqliteReputationStore:
    """Open (and initialise) a store from a URL.

    ``memory://`` opens a fresh in-memory database; ``memory://name`` a
    process-wide shared one (so an in-process service and its submitter see
    the same state).  ``sqlite://path`` — and any bare path, ``Path``
    included — opens a database file.  Any other ``driver://`` prefix
    raises :class:`~repro.errors.PersistenceError`.
    """
    text = str(url)
    driver, separator, rest = text.partition("://")
    if not separator:
        driver, rest = "sqlite", text
    if driver == "memory":
        store = _memory_store(rest)
    elif driver == "sqlite":
        store = SqliteReputationStore(rest)
    else:
        raise PersistenceError(
            f"unknown store driver {driver!r} (known: memory, sqlite)"
        )
    store.initialize()
    return store


class _SharedMemoryStore(SqliteReputationStore):
    """The store behind ``memory://name``: ``close`` keeps it for its other holders."""

    def close(self) -> None:
        pass


_SHARED: dict[str, _SharedMemoryStore] = {}
_SHARED_LOCK = threading.Lock()


@atexit.register
def _close_shared_stores() -> None:
    """Close every ``memory://name`` database once the process is exiting."""
    for store in _SHARED.values():
        SqliteReputationStore.close(store)


def _memory_store(name: str) -> SqliteReputationStore:
    """A fresh in-memory store, or the process-wide one called ``name``."""
    if not name:
        return SqliteReputationStore(":memory:")
    with _SHARED_LOCK:
        store = _SHARED.get(name)
        if store is None:
            store = _SHARED[name] = _SharedMemoryStore(":memory:")
        return store
