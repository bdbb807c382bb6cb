"""The records a reputation store holds.

:class:`~repro.storage.sqlite.SqliteReputationStore` persists two kinds of
state:

* **backend snapshots** (:class:`StateSnapshot`) — the JSON text a
  reputation backend's ``encode_state()`` writes (its ``export_state()``
  with sorted keys, encoded without building that dict), stored under a
  caller-chosen key together with the backend's scheme name and
  ``state_digest()`` so a restore can be verified bit-for-bit; loading
  parses it back into :attr:`StateSnapshot.payload`;
* **per-peer records** (:class:`PeerRecord`) — a queryable
  ``(scheme, subject) -> score`` table written beside each snapshot from
  the backend's live state, with scores clamped by :func:`clamp_score`,
  for callers (the HTTP service, dashboards) that want one peer's
  reputation without rehydrating a whole backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["PeerRecord", "StateSnapshot", "clamp_score"]


def clamp_score(value: float) -> float:
    """Clamp a reputation score to the protocol's [0, 1] range."""
    return min(1.0, max(0.0, float(value)))


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
    """One row of the queryable per-peer reputation table.

    ``reports`` and ``adjustments`` are the backend's ``peer_tallies``: ROCQ
    counts each report or adjustment once per replica that received it; the
    log-based schemes count the ratings the peer received, and give
    ``adjustments`` 1 for any credit entry (however many adjustments made
    it, or a bootstrap install alone).
    """

    scheme: str
    subject: int
    score: float
    reports: int = 0
    adjustments: int = 0
    updated_at: float = 0.0
