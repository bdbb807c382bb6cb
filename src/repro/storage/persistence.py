"""Checkpoint/restore glue between reputation backends and durable stores.

:class:`BackendPersistence` owns the round-trip discipline:

* **checkpoint** exports the backend's state once, stamps it with
  ``state_digest()`` and writes it under a stable key, then derives the
  queryable per-peer table from the same payload in one batch upsert;
* **restore** loads the snapshot, refuses scheme mismatches, applies it via
  the backend's ``restore_state`` and verifies the restored digest against
  the stored one — a restore that is not bit-identical raises
  :class:`~repro.errors.PersistenceError` instead of silently continuing
  from drifted state.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..errors import PersistenceError
from .base import PeerRecord, clamp_score
from .sqlite import SqliteReputationStore

__all__ = ["BackendPersistence", "derive_peer_records"]


def derive_peer_records(
    backend: Any, payload: Mapping[str, Any], time: float = 0.0
) -> list[PeerRecord]:
    """Per-peer rows for the queryable table, derived from an export payload.

    The payload (not a second export) supplies the subject universe and the
    report/adjustment tallies; the live backend supplies each subject's
    combined score.  Works for both shipped payload shapes:

    * ``rocq`` — subjects are every tracked record across managers, with
      reports/adjustments summed over replicas;
    * log-based schemes — subjects are the interaction log's peers plus
      anyone touched by an adjustment credit, with reports counted as
      times-rated.
    """
    scheme = str(payload.get("scheme", getattr(backend, "scheme", "")))
    reports: dict[int, int] = {}
    adjustments: dict[int, int] = {}
    if "managers" in payload:
        for manager_payload in payload["managers"].values():
            for subject_key, snapshot in manager_payload.get("records", {}).items():
                subject = int(subject_key)
                reports[subject] = reports.get(subject, 0) + int(
                    snapshot.get("reports", 0)
                )
                adjustments[subject] = adjustments.get(subject, 0) + int(
                    snapshot.get("adjustments", 0)
                )
    else:
        for side in ("positive", "negative"):
            for _, subject, count in payload.get(side, ()):
                subject = int(subject)
                reports[subject] = reports.get(subject, 0) + int(count)
        for peer in payload.get("peers", ()):
            reports.setdefault(int(peer), 0)
        for subject_key in payload.get("credit", {}):
            subject = int(subject_key)
            reports.setdefault(subject, 0)
            adjustments[subject] = adjustments.get(subject, 0) + 1
    return [
        PeerRecord(
            scheme=scheme,
            subject=subject,
            score=clamp_score(backend.global_reputation(subject)),
            reports=reports.get(subject, 0),
            adjustments=adjustments.get(subject, 0),
            updated_at=time,
        )
        for subject in sorted(set(reports) | set(adjustments))
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
        """Persist ``backend``'s full state and per-peer table; return key."""
        key = self.key_for(backend)
        payload = backend.export_state()
        self.store.save_state(
            key,
            backend.scheme,
            payload,
            digest=backend.state_digest(),
            saved_at=time,
        )
        self.store.upsert_peers(
            str(payload.get("scheme", backend.scheme)),
            derive_peer_records(backend, payload, time=time),
        )
        return key
