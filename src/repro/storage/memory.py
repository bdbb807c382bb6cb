"""In-memory reference driver (and shared fixture for in-process services).

State lives in plain dicts, but payloads still pass through the canonical
JSON encoding on save and are decoded on load — a payload that would not
survive the sqlite driver does not survive this one either, so tests
written against ``memory://`` stay honest about what ``sqlite://`` will
accept.

``memory://name`` URLs resolve to a process-wide shared instance per name,
which is how an in-process HTTP service and the runs it executes inline
observe one store without a file on disk.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Iterable, Mapping

from ..errors import PersistenceError
from .base import (
    PeerRecord,
    ReputationStore,
    StateSnapshot,
    clamp_score,
    encode_payload,
)

__all__ = ["MemoryReputationStore", "open_memory_store"]


class MemoryReputationStore(ReputationStore):
    """Dict-backed :class:`ReputationStore` with sqlite-equivalent semantics."""

    def __init__(self, shared: bool = False) -> None:
        self._lock = threading.Lock()
        self._states: dict[str, tuple[str, str, str, float]] = {}
        self._peers: dict[tuple[str, int], PeerRecord] = {}
        self._closed = False
        #: ``memory://name`` instances are process-shared: one holder closing
        #: its handle must not destroy state other holders still read, so
        #: ``close`` is a no-op for them (mirroring how closing one sqlite
        #: connection leaves the database file for everyone else).
        self._shared = shared

    # -- lifecycle ------------------------------------------------------- #
    def initialize(self) -> None:
        self._check_open()

    def close(self) -> None:
        if not self._shared:
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise PersistenceError("store is closed")

    # -- backend snapshots ----------------------------------------------- #
    def save_state(
        self,
        key: str,
        scheme: str,
        payload: Mapping[str, Any],
        digest: str = "",
        saved_at: float = 0.0,
    ) -> None:
        self._check_open()
        encoded = encode_payload(payload)
        with self._lock:
            self._states[key] = (scheme, digest, encoded, saved_at)

    def load_state(self, key: str) -> StateSnapshot | None:
        self._check_open()
        with self._lock:
            row = self._states.get(key)
        if row is None:
            return None
        scheme, digest, encoded, saved_at = row
        return StateSnapshot(
            key=key,
            scheme=scheme,
            payload=json.loads(encoded),
            digest=digest,
            saved_at=saved_at,
        )

    def state_keys(self) -> list[str]:
        self._check_open()
        with self._lock:
            return sorted(self._states)

    # -- per-peer records ------------------------------------------------ #
    def upsert_peers(self, scheme: str, records: Iterable[PeerRecord]) -> None:
        self._check_open()
        staged = [
            PeerRecord(
                scheme=scheme,
                subject=int(record.subject),
                score=clamp_score(record.score),
                reports=int(record.reports),
                adjustments=int(record.adjustments),
                updated_at=float(record.updated_at),
            )
            for record in records
        ]
        with self._lock:
            for record in staged:
                self._peers[(scheme, record.subject)] = record

    def get_peer(self, scheme: str, subject: int) -> PeerRecord | None:
        self._check_open()
        with self._lock:
            return self._peers.get((scheme, int(subject)))

    def list_peers(self, scheme: str) -> list[PeerRecord]:
        self._check_open()
        with self._lock:
            records = [r for (s, _), r in self._peers.items() if s == scheme]
        return sorted(records, key=lambda record: record.subject)

    def peer_schemes(self) -> list[str]:
        self._check_open()
        with self._lock:
            return sorted({scheme for scheme, _ in self._peers})


# Process-wide shared instances for ``memory://name`` URLs.
_SHARED: dict[str, MemoryReputationStore] = {}
_SHARED_LOCK = threading.Lock()


def open_memory_store(name: str) -> MemoryReputationStore:
    """The store behind ``memory://name``.

    An empty ``name`` gives a fresh store; any other name gives the
    process-wide instance of that name, created on first use.
    """
    if not name:
        return MemoryReputationStore()
    with _SHARED_LOCK:
        store = _SHARED.get(name)
        if store is None:
            store = MemoryReputationStore(shared=True)
            _SHARED[name] = store
        return store
