"""The reputation store: sqlite, on a file or in memory.

:func:`repro.storage.make_store` opens it from a URL.  ``sqlite://path`` and
any bare path name a database file; ``memory://`` names sqlite's in-memory
database, which lives inside one connection and therefore one process.

Design choices:

* **WAL mode** — readers never block the single writer, and a reader in
  another process (a restarted service, the CI smoke job's poller) sees
  every committed checkpoint of a file database;
* **single-writer transactions** — all writes funnel through one
  connection guarded by a :class:`threading.Lock` and run inside
  ``with connection:`` blocks, so a torn checkpoint is impossible: a crash
  mid-save rolls back to the previous complete snapshot, and a batch
  upsert applies whole or not at all;
* ``synchronous=NORMAL`` — the standard WAL pairing: fsync on checkpoint
  rather than per commit, durable against process crash.

A file database is shared by path, so process-pool workers each open their
own connection to the same file and WAL arbitrates between them.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from pathlib import Path
from typing import Iterable

from ..errors import PersistenceError
from .base import PeerRecord, StateSnapshot, clamp_score

__all__ = ["SqliteReputationStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS backend_state (
    key      TEXT PRIMARY KEY,
    scheme   TEXT NOT NULL,
    digest   TEXT NOT NULL,
    payload  TEXT NOT NULL,
    saved_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS peer_reputation (
    scheme     TEXT    NOT NULL,
    subject    INTEGER NOT NULL,
    score      REAL    NOT NULL,
    reports    INTEGER NOT NULL DEFAULT 0,
    adjustments INTEGER NOT NULL DEFAULT 0,
    updated_at REAL    NOT NULL DEFAULT 0,
    PRIMARY KEY (scheme, subject)
);
"""


class SqliteReputationStore:
    """Durable reputation state on the stdlib ``sqlite3``.

    ``path`` is a database file, or ``":memory:"`` for a database that lives
    as long as this store's connection.  :meth:`save_state` and
    :meth:`upsert_peers` overwrite; :meth:`list_peers` sorts by subject id.
    """

    def __init__(self, path: str | Path) -> None:
        if not str(path):
            raise PersistenceError("sqlite store needs a database path")
        self.path = Path(path)
        self._lock = threading.Lock()
        self._connection: sqlite3.Connection | None = None

    def _connect(self) -> sqlite3.Connection:
        if self._connection is None:
            raise PersistenceError("store is closed (or was never initialized)")
        return self._connection

    # -- lifecycle ------------------------------------------------------- #
    def initialize(self) -> None:
        """Open the database and create the schema (idempotent)."""
        with self._lock:
            if self._connection is not None:
                return
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                connection = sqlite3.connect(
                    str(self.path), check_same_thread=False
                )
                connection.execute("PRAGMA journal_mode=WAL")
                connection.execute("PRAGMA synchronous=NORMAL")
                connection.executescript(_SCHEMA)
                connection.commit()
            except sqlite3.Error as exc:
                raise PersistenceError(
                    f"cannot open sqlite store at {self.path}: {exc}"
                ) from exc
            self._connection = connection

    def close(self) -> None:
        """Close the connection; an in-memory database is gone with it."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def __enter__(self) -> "SqliteReputationStore":
        self.initialize()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- backend snapshots ----------------------------------------------- #
    def save_state(
        self,
        key: str,
        scheme: str,
        text: str,
        digest: str = "",
        saved_at: float = 0.0,
    ) -> None:
        """Persist a snapshot's JSON text under ``key`` (overwriting).

        ``text`` is stored as given, so the caller encodes it — and meets a
        payload that is not strict JSON — before the database is touched.
        :meth:`load_state` parses it back.
        """
        with self._lock:
            connection = self._connect()
            with connection:
                connection.execute(
                    "INSERT INTO backend_state (key, scheme, digest, payload,"
                    " saved_at) VALUES (?, ?, ?, ?, ?)"
                    " ON CONFLICT (key) DO UPDATE SET scheme = excluded.scheme,"
                    " digest = excluded.digest, payload = excluded.payload,"
                    " saved_at = excluded.saved_at",
                    (key, scheme, digest, text, saved_at),
                )

    def load_state(self, key: str) -> StateSnapshot | None:
        with self._lock:
            row = (
                self._connect()
                .execute(
                    "SELECT scheme, digest, payload, saved_at FROM backend_state"
                    " WHERE key = ?",
                    (key,),
                )
                .fetchone()
            )
        if row is None:
            return None
        return StateSnapshot(
            key=key,
            scheme=row[0],
            payload=json.loads(row[2]),
            digest=row[1],
            saved_at=row[3],
        )

    def state_keys(self) -> list[str]:
        with self._lock:
            rows = self._connect().execute(
                "SELECT key FROM backend_state ORDER BY key"
            )
            return [row[0] for row in rows]

    # -- per-peer records ------------------------------------------------ #
    def upsert_peers(self, scheme: str, records: Iterable[PeerRecord]) -> None:
        rows = [
            (
                scheme,
                int(record.subject),
                clamp_score(record.score),
                int(record.reports),
                int(record.adjustments),
                float(record.updated_at),
            )
            for record in records
        ]
        with self._lock:
            connection = self._connect()
            with connection:
                connection.executemany(
                    "INSERT INTO peer_reputation (scheme, subject, score,"
                    " reports, adjustments, updated_at)"
                    " VALUES (?, ?, ?, ?, ?, ?)"
                    " ON CONFLICT (scheme, subject) DO UPDATE SET"
                    " score = excluded.score, reports = excluded.reports,"
                    " adjustments = excluded.adjustments,"
                    " updated_at = excluded.updated_at",
                    rows,
                )

    def get_peer(self, scheme: str, subject: int) -> PeerRecord | None:
        with self._lock:
            row = (
                self._connect()
                .execute(
                    "SELECT score, reports, adjustments, updated_at"
                    " FROM peer_reputation WHERE scheme = ? AND subject = ?",
                    (scheme, int(subject)),
                )
                .fetchone()
            )
        if row is None:
            return None
        return PeerRecord(
            scheme=scheme,
            subject=int(subject),
            score=row[0],
            reports=row[1],
            adjustments=row[2],
            updated_at=row[3],
        )

    def list_peers(self, scheme: str) -> list[PeerRecord]:
        with self._lock:
            rows = self._connect().execute(
                "SELECT subject, score, reports, adjustments, updated_at"
                " FROM peer_reputation WHERE scheme = ? ORDER BY subject",
                (scheme,),
            )
            return [
                PeerRecord(
                    scheme=scheme,
                    subject=row[0],
                    score=row[1],
                    reports=row[2],
                    adjustments=row[3],
                    updated_at=row[4],
                )
                for row in rows
            ]

    def peer_schemes(self) -> list[str]:
        with self._lock:
            rows = self._connect().execute(
                "SELECT DISTINCT scheme FROM peer_reputation ORDER BY scheme"
            )
            return [row[0] for row in rows]
