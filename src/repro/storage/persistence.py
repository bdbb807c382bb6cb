"""Checkpoint/restore glue between reputation backends and durable stores.

:class:`BackendPersistence` owns the round-trip discipline:

* **checkpoint** has the backend encode its state as JSON text
  (``encode_state()``: for ``rocq`` one score manager at a time, never the
  whole ``export_state()`` tree), stamps it with ``state_digest()`` and
  writes it under a stable key, then writes the queryable per-peer table,
  counted from the backend's live records, in one batch upsert;
* **restore** loads the snapshot, refuses scheme mismatches, applies it via
  the backend's ``restore_state`` and verifies the restored digest against
  the stored one — a restore that is not bit-identical raises
  :class:`~repro.errors.PersistenceError` instead of silently continuing
  from drifted state.  Restore still parses the whole document with
  ``json.loads``.
"""

from __future__ import annotations

from typing import Any

from ..errors import PersistenceError
from .base import PeerRecord, clamp_score
from .sqlite import SqliteReputationStore

__all__ = ["BackendPersistence", "derive_peer_records"]


def derive_peer_records(backend: Any, time: float = 0.0) -> list[PeerRecord]:
    """Per-peer rows for the queryable table, one per subject the backend holds.

    The backend's ``peer_tallies()`` supplies the subjects with their report
    and adjustment counts, and ``global_reputation`` each subject's combined
    score, asked in subject order.
    """
    scheme = backend.scheme
    return [
        PeerRecord(
            scheme=scheme,
            subject=subject,
            score=clamp_score(backend.global_reputation(subject)),
            reports=reports,
            adjustments=adjustments,
            updated_at=time,
        )
        for subject, (reports, adjustments) in sorted(backend.peer_tallies().items())
    ]


class BackendPersistence:
    """Bind one reputation backend to one durable store key.

    Parameters
    ----------
    store:
        An initialised :class:`~repro.storage.sqlite.SqliteReputationStore`.
    key:
        Snapshot key; empty selects ``backend/<scheme>`` at use time.
    resume:
        When true, :meth:`repro.sim.engine.Simulation` restores the
        backend from the store before the run instead of starting cold.
    """

    def __init__(
        self, store: SqliteReputationStore, key: str = "", resume: bool = False
    ) -> None:
        self.store = store
        self.key = key
        self.resume = resume

    def key_for(self, backend: Any) -> str:
        return self.key or f"backend/{backend.scheme}"

    def restore(self, backend: Any) -> bool:
        """Restore ``backend`` from its snapshot; ``False`` when none exists.

        Raises :class:`~repro.errors.PersistenceError` when the snapshot
        belongs to a different scheme or the restored ``state_digest()``
        does not match the digest recorded at checkpoint time.
        """
        snapshot = self.store.load_state(self.key_for(backend))
        if snapshot is None:
            return False
        if snapshot.scheme != backend.scheme:
            raise PersistenceError(
                f"snapshot {snapshot.key!r} holds scheme {snapshot.scheme!r} "
                f"state but the backend runs {backend.scheme!r}"
            )
        backend.restore_state(snapshot.payload)
        if snapshot.digest:
            restored = backend.state_digest()
            if restored != snapshot.digest:
                raise PersistenceError(
                    f"restore of {snapshot.key!r} is not bit-identical: "
                    f"digest {restored} != stored {snapshot.digest}"
                )
        return True

    def checkpoint(self, backend: Any, time: float = 0.0) -> str:
        """Persist ``backend``'s full state and per-peer table; return key.

        The state is encoded before the store is touched, so a state that
        is not strict JSON (a non-finite float, say) raises
        :class:`~repro.errors.PersistenceError` and leaves the previous
        snapshot and peer rows as they were.
        """
        key = self.key_for(backend)
        try:
            text = backend.encode_state()
        except (TypeError, ValueError) as exc:
            raise PersistenceError(
                f"state of {key!r} is not strict JSON: {exc}"
            ) from exc
        self.store.save_state(
            key,
            backend.scheme,
            text,
            digest=backend.state_digest(),
            saved_at=time,
        )
        self.store.upsert_peers(backend.scheme, derive_peer_records(backend, time))
        return key
