"""Ground-truth adversary labels extracted from finished runs.

The simulation engine knows exactly which identities the configured
:class:`~repro.config.AdversarySpec` injected — sybil waves, whitewash
rebirths, colluders, slanderers — and attaches that ground truth to the
:class:`~repro.metrics.summary.RunSummary` of every adversary run
(``summary.adversary_identities`` and the ``summary.detection`` payload).
:class:`LabelSet` turns the payload into one
``(peer_id, final_score, score_history, is_adversary)`` tuple per labelled
peer, the unit every metric in :mod:`repro.detection.ranking` and
:mod:`repro.detection.calibration` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..metrics.summary import RunSummary

__all__ = ["PeerLabel", "LabelSet"]


@dataclass(frozen=True)
class PeerLabel:
    """One labelled identity: who it was, how it scored, what it was."""

    peer_id: int
    #: Ground truth: was this identity created/controlled by the adversary?
    is_adversary: bool
    #: Ground truth: does this peer serve cooperatively?  (Not the negation
    #: of :attr:`is_adversary`: slanderers serve honestly while lying about
    #: others, churn-storm joiners are cooperative identities the adversary
    #: merely schedules.)  ``None`` when unknown.
    cooperative: bool | None
    #: Reputation score at the end of the run (``None`` when unknown).
    final_score: float | None = None
    #: ``(time, score)`` samples, one per periodic snapshot the peer was an
    #: active member for.
    history: tuple[tuple[float, float], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "peer_id": self.peer_id,
            "is_adversary": self.is_adversary,
            "cooperative": self.cooperative,
            "final_score": self.final_score,
            "history": [[time, score] for time, score in self.history],
        }


@dataclass(frozen=True)
class LabelSet:
    """Every labelled identity of one finished run."""

    labels: tuple[PeerLabel, ...]
    #: The run's admission threshold (``effective_min_intro_reputation``):
    #: the score below which a member could no longer vouch for anyone —
    #: the operating point time-to-detection is measured against.
    threshold: float
    scheme: str
    #: Where the labels came from (``"summary"``).
    source: str

    def __len__(self) -> int:
        return len(self.labels)

    # ------------------------------------------------------------------ #
    # Views                                                                #
    # ------------------------------------------------------------------ #
    def cells(
        self,
    ) -> list[tuple[int, float | None, tuple[tuple[float, float], ...], bool]]:
        """``(peer_id, final_score, score_history, is_adversary)`` per peer."""
        return [
            (label.peer_id, label.final_score, label.history, label.is_adversary)
            for label in self.labels
        ]

    def adversary_ids(self) -> list[int]:
        """Ids of every adversary-controlled identity, sorted."""
        return sorted(label.peer_id for label in self.labels if label.is_adversary)

    def scored(self) -> tuple[list[float], list[bool]]:
        """``(final_scores, is_adversary)`` lists over peers with a score."""
        scored = [label for label in self.labels if label.final_score is not None]
        scores = [label.final_score for label in scored]
        flags = [label.is_adversary for label in scored]
        return scores, flags

    def suspicion(self) -> tuple[list[float], list[bool]]:
        """``(suspicion, is_adversary)``: negated scores, so the ranking
        metrics' higher-score-is-more-positive convention means "a scheme
        detects well when adversaries sit at the *bottom* of the reputation
        ranking"."""
        scores, flags = self.scored()
        return [-score for score in scores], flags

    def service_probabilities(self) -> tuple[list[float], list[bool]]:
        """``(probability, outcome)`` pairs for calibration metrics.

        Reads each reputation score as the predicted probability of good
        service (clipped into [0, 1]) against the ground-truth cooperative
        flag.  Peers with no score or unknown behaviour are skipped.
        """
        usable = [
            label
            for label in self.labels
            if label.final_score is not None and label.cooperative is not None
        ]
        probabilities = [min(max(label.final_score, 0.0), 1.0) for label in usable]
        outcomes = [bool(label.cooperative) for label in usable]
        return probabilities, outcomes

    # ------------------------------------------------------------------ #
    # Construction                                                         #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_summary(cls, summary: "RunSummary") -> "LabelSet":
        """Labels of a finished adversary run, from its summary payload."""
        payload = summary.detection
        if payload is None:
            raise ValueError(
                "summary carries no detection payload — it was produced by a "
                "run without an adversary (params.adversary is None)"
            )
        histories: dict[int, list[tuple[float, float]]] = {}
        for time, ids, values in payload.get("snapshots", []):
            for peer_id, value in zip(ids, values):
                histories.setdefault(int(peer_id), []).append(
                    (float(time), float(value))
                )
        labels = tuple(
            PeerLabel(
                peer_id=int(peer_id),
                is_adversary=bool(is_adversary),
                cooperative=bool(cooperative),
                final_score=float(final_score),
                history=tuple(histories.get(int(peer_id), ())),
            )
            for peer_id, final_score, is_adversary, cooperative in payload["peers"]
        )
        return cls(
            labels=labels,
            threshold=float(payload["threshold"]),
            scheme=str(payload["scheme"]),
            source="summary",
        )

    # ------------------------------------------------------------------ #
    # Serialisation                                                        #
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "threshold": self.threshold,
            "scheme": self.scheme,
            "source": self.source,
            "labels": [label.to_dict() for label in self.labels],
        }
