"""The durable reputation-store interface.

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

The two drivers, in-memory and sqlite, live in their own modules;
:func:`repro.storage.make_store` opens either from a URL.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..errors import PersistenceError

__all__ = [
    "PeerRecord",
    "ReputationStore",
    "StateSnapshot",
    "clamp_score",
    "encode_payload",
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
