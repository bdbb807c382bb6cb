"""The durable reputation-store interface and its driver registry.

:class:`ReputationStore` is the abstract surface every driver implements.
It persists two kinds of state:

* **backend snapshots** — the full JSON payload a reputation backend's
  ``export_state()`` produces, stored under a caller-chosen key together
  with the backend's scheme name and ``state_digest()`` so a restore can be
  verified bit-for-bit;
* **per-peer records** — a queryable ``(scheme, subject) -> score`` table
  derived from the snapshots, with clamped scores, for callers (the HTTP
  service, dashboards) that want one peer's reputation without rehydrating
  a whole backend.

Drivers register under a URL prefix via :func:`register_store_driver`;
:func:`make_store` resolves ``memory://`` and ``sqlite://`` URLs (and bare
filesystem paths, which imply sqlite) so a postgres driver can slot in
later by registering ``postgres://`` without touching any call site.  The
conformance suite in ``tests/test_storage.py`` is parametrised over the
registry for exactly that reason.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from ..errors import PersistenceError

__all__ = [
    "PeerRecord",
    "ReputationStore",
    "StateSnapshot",
    "clamp_score",
    "encode_payload",
    "make_store",
    "register_store_driver",
    "store_drivers",
]


def clamp_score(value: float) -> float:
    """Clamp a reputation score to the protocol's [0, 1] range."""
    return min(1.0, max(0.0, float(value)))


def encode_payload(payload: Mapping[str, Any]) -> str:
    """Canonical JSON encoding shared by every driver.

    Encoding happens *before* the driver touches its medium — the in-memory
    driver included — so a payload that is not strict JSON (non-finite
    floats, non-string-keyed mappings, arbitrary objects) fails identically
    everywhere instead of only once a file-backed driver is swapped in.
    """
    try:
        return json.dumps(dict(payload), sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise PersistenceError(f"state payload is not strict JSON: {exc}") from exc


@dataclass(frozen=True)
class StateSnapshot:
    """One persisted backend snapshot."""

    key: str
    scheme: str
    payload: dict[str, Any]
    digest: str = ""
    saved_at: float = 0.0


@dataclass(frozen=True)
class PeerRecord:
    """One row of the queryable per-peer reputation table."""

    scheme: str
    subject: int
    score: float
    reports: int = 0
    adjustments: int = 0
    updated_at: float = 0.0


class ReputationStore(ABC):
    """Abstract durable store for reputation state.

    Semantics every driver must honour (and the conformance suite checks):

    * :meth:`initialize` is idempotent — safe to call on every open;
    * :meth:`save_state` overwrites the snapshot under ``key``;
    * :meth:`upsert_peers` overwrites, with each score clamped to [0, 1],
      and applies a batch atomically (one transaction on transactional
      drivers);
    * :meth:`list_peers` returns records sorted by subject id.
    """

    # -- lifecycle ------------------------------------------------------- #
    @abstractmethod
    def initialize(self) -> None:
        """Create the schema if missing (idempotent)."""

    @abstractmethod
    def close(self) -> None:
        """Release the driver's resources; further calls may fail."""

    def __enter__(self) -> "ReputationStore":
        self.initialize()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- backend snapshots ----------------------------------------------- #
    @abstractmethod
    def save_state(
        self,
        key: str,
        scheme: str,
        payload: Mapping[str, Any],
        digest: str = "",
        saved_at: float = 0.0,
    ) -> None:
        """Persist a backend snapshot under ``key`` (overwriting)."""

    @abstractmethod
    def load_state(self, key: str) -> StateSnapshot | None:
        """Load the snapshot under ``key``, or ``None`` when absent."""

    @abstractmethod
    def state_keys(self) -> list[str]:
        """All snapshot keys, sorted."""

    # -- per-peer records ------------------------------------------------ #
    @abstractmethod
    def upsert_peers(self, scheme: str, records: Iterable[PeerRecord]) -> None:
        """Insert or overwrite a batch of records atomically (scores clamped)."""

    @abstractmethod
    def get_peer(self, scheme: str, subject: int) -> PeerRecord | None:
        """One peer's record, or ``None`` when never seen."""

    @abstractmethod
    def list_peers(self, scheme: str) -> list[PeerRecord]:
        """Every record for ``scheme``, sorted by subject id."""

    @abstractmethod
    def peer_schemes(self) -> list[str]:
        """Schemes with at least one peer record, sorted."""


# ---------------------------------------------------------------------- #
# Driver registry                                                          #
# ---------------------------------------------------------------------- #
_DRIVERS: dict[str, Callable[[str], ReputationStore]] = {}


def register_store_driver(
    name: str, factory: Callable[[str], ReputationStore]
) -> None:
    """Register ``factory`` for ``name://...`` store URLs.

    The factory receives the URL's remainder (everything after ``name://``)
    and returns an **uninitialised** store; :func:`make_store` calls
    :meth:`ReputationStore.initialize` on the result.
    """
    _DRIVERS[name] = factory


def store_drivers() -> list[str]:
    """Registered driver names, sorted (used to parametrise conformance)."""
    return sorted(_DRIVERS)


def make_store(url: str | Path) -> ReputationStore:
    """Open (and initialise) a store from a driver URL.

    ``memory://`` opens a fresh in-memory store; ``memory://name`` a
    process-wide shared one (so an in-process service and its submitter see
    the same state).  ``sqlite://path`` — and any bare path, ``Path``
    included — opens the sqlite driver.  Unknown ``driver://`` prefixes
    raise :class:`~repro.errors.PersistenceError` listing what is
    registered.
    """
    text = str(url)
    if "://" in text:
        name, _, rest = text.partition("://")
        factory = _DRIVERS.get(name)
        if factory is None:
            raise PersistenceError(
                f"unknown store driver {name!r} "
                f"(registered: {', '.join(store_drivers())})"
            )
    else:
        factory, rest = _DRIVERS["sqlite"], text
    store = factory(rest)
    store.initialize()
    return store
