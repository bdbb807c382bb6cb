"""Threshold-free ranking metrics in the standard library (no sklearn).

Every function follows the standard convention: a **higher score predicts
the positive class**.  Detection callers therefore pass *suspicion*
(negated reputation) with ``is_adversary`` as the positive label — see
:meth:`repro.detection.labels.LabelSet.suspicion` — so an AUC of 1.0 means
the scheme ranked every adversary below every honest peer.

Tie handling is deterministic everywhere: samples sharing a score move
through the ranking as one group (the ROC curve gains one vertex per
distinct score, and the trapezoidal AUC equals the Mann-Whitney statistic
with half credit for ties), and top-k selection breaks score ties by input
position.  Results depend only on the input sequences, never on iteration
order or hashing, and float sums run in numpy's pairwise order
(:func:`repro.numeric.pairwise_sum`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..numeric import pairwise_sum

__all__ = [
    "RocCurve",
    "ThresholdPoint",
    "roc_curve",
    "auc",
    "average_precision",
    "precision_at_k",
    "precision_recall_f1",
    "operating_point_auc",
    "threshold_sweep",
    "time_to_detection",
]


def _validate(
    scores: Iterable[float], labels: Iterable[Any]
) -> tuple[list[float], list[bool]]:
    score_list = [float(score) for score in scores]
    label_list = [bool(label) for label in labels]
    if len(score_list) != len(label_list):
        raise ValueError(f"{len(score_list)} scores but {len(label_list)} labels")
    return score_list, label_list


def _descending(scores: list[float]) -> list[int]:
    """Positions of ``scores`` by descending score, ties in input order."""
    return sorted(range(len(scores)), key=lambda position: -scores[position])


@dataclass(frozen=True)
class RocCurve:
    """One ROC curve: the (FPR, TPR) staircase and its area.

    ``thresholds[i]`` is the score at-or-above which a sample is called
    positive to reach operating point ``(fpr[i], tpr[i])``; index 0 is the
    call-nothing point ``(0, 0)`` with threshold ``inf``.
    """

    fpr: tuple[float, ...]
    tpr: tuple[float, ...]
    thresholds: tuple[float, ...]
    auc: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "fpr": list(self.fpr),
            "tpr": list(self.tpr),
            "thresholds": list(self.thresholds),
            "auc": self.auc,
        }


@dataclass(frozen=True)
class ThresholdPoint:
    """Precision/recall/F1 of the call-positive-at-or-above rule."""

    threshold: float
    precision: float
    recall: float
    f1: float
    true_positives: int
    false_positives: int
    false_negatives: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "threshold": self.threshold,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "false_negatives": self.false_negatives,
        }


def _tie_grouped_counts(
    scores: list[float], labels: list[bool]
) -> tuple[list[float], list[int], list[int]]:
    """Cumulative (TP, FP) after each distinct-score group, descending.

    Returns ``(thresholds, tps, fps)`` where ``thresholds`` are the
    distinct scores in descending order and ``tps[i]``/``fps[i]`` count the
    positives/negatives with score >= ``thresholds[i]``.
    """
    order = _descending(scores)
    thresholds, tps, fps = [], [], []
    true_positives = 0
    for rank, position in enumerate(order, start=1):
        true_positives += labels[position]
        # The last index of every tie group of equal scores.
        if rank == len(order) or scores[order[rank]] != scores[position]:
            thresholds.append(scores[position])
            tps.append(true_positives)
            fps.append(rank - true_positives)
    return thresholds, tps, fps


def roc_curve(scores: Sequence[float], labels: Sequence[Any]) -> RocCurve:
    """ROC curve of ``scores`` against boolean ``labels``.

    Tied scores form a single vertex (the whole tie group is called
    positive together), so the curve — and its trapezoidal area — is
    invariant under any reordering of the inputs.  With no positives or no
    negatives the curve degenerates and the AUC is NaN.
    """
    score_list, label_list = _validate(scores, labels)
    if not score_list:
        return RocCurve(
            fpr=(0.0,), tpr=(0.0,), thresholds=(float("inf"),), auc=float("nan")
        )
    thresholds, tps, fps = _tie_grouped_counts(score_list, label_list)
    positives = tps[-1]
    negatives = fps[-1]
    tpr = [0.0, *(tp / positives if positives else 0.0 for tp in tps)]
    fpr = [0.0, *(fp / negatives if negatives else 0.0 for fp in fps)]
    if positives == 0 or negatives == 0:
        area = float("nan")
    else:
        # The trapezoidal rule, spelled out.
        area = pairwise_sum(
            (fpr[i] - fpr[i - 1]) * (tpr[i] + tpr[i - 1]) / 2.0
            for i in range(1, len(fpr))
        )
    return RocCurve(
        fpr=tuple(fpr),
        tpr=tuple(tpr),
        thresholds=(float("inf"), *thresholds),
        auc=area,
    )


def auc(scores: Sequence[float], labels: Sequence[Any]) -> float:
    """Area under the ROC curve (ties get half credit; NaN if one-class)."""
    return roc_curve(scores, labels).auc


def average_precision(scores: Sequence[float], labels: Sequence[Any]) -> float:
    """Average precision: precision-weighted recall increments.

    ``AP = Σ_k (R_k − R_{k−1}) · P_k`` over the distinct-score groups in
    descending order — the tie-grouped form of the area under the
    precision-recall curve, deterministic under input reordering.  NaN when
    there are no positive labels.
    """
    score_list, label_list = _validate(scores, labels)
    if not any(label_list):
        return float("nan")
    _, tps, fps = _tie_grouped_counts(score_list, label_list)
    positives = tps[-1]
    recall = [tp / positives for tp in tps]
    previous_recall = [0.0, *recall[:-1]]
    return pairwise_sum(
        (current - previous) * (tp / (tp + fp))
        for current, previous, tp, fp in zip(recall, previous_recall, tps, fps)
    )


def precision_at_k(scores: Sequence[float], labels: Sequence[Any], k: int) -> float:
    """Fraction of the top-``k`` scored samples that are positive.

    Ties at the k-th position break by input order (stable sort), so the
    result is deterministic for a fixed input ordering.
    """
    score_list, label_list = _validate(scores, labels)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not score_list:
        return float("nan")
    top = _descending(score_list)[:k]
    return sum(label_list[position] for position in top) / len(top)


def _confusion(
    scores: list[float], labels: list[bool], threshold: float
) -> tuple[int, int, int]:
    """(TP, FP, FN) of calling every score >= ``threshold`` positive."""
    calls = [(score >= threshold, label) for score, label in zip(scores, labels)]
    hit, false_alarm, miss = (True, True), (True, False), (False, True)
    return calls.count(hit), calls.count(false_alarm), calls.count(miss)


def precision_recall_f1(
    scores: Sequence[float], labels: Sequence[Any], threshold: float
) -> ThresholdPoint:
    """Precision/recall/F1 of calling every score >= ``threshold`` positive.

    Empty-denominator conventions: precision is NaN when nothing is called
    positive, recall is NaN when there are no positives, and F1 is 0.0
    when precision + recall is 0 (and NaN when either side is NaN).
    """
    true_positives, false_positives, false_negatives = _confusion(
        *_validate(scores, labels), threshold
    )
    precision = (
        true_positives / (true_positives + false_positives)
        if true_positives + false_positives
        else float("nan")
    )
    recall = (
        true_positives / (true_positives + false_negatives)
        if true_positives + false_negatives
        else float("nan")
    )
    if precision != precision or recall != recall:
        f1 = float("nan")
    elif precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return ThresholdPoint(
        threshold=float(threshold),
        precision=precision,
        recall=recall,
        f1=f1,
        true_positives=true_positives,
        false_positives=false_positives,
        false_negatives=false_negatives,
    )


def threshold_sweep(
    scores: Sequence[float],
    labels: Sequence[Any],
    thresholds: Sequence[float] | None = None,
) -> tuple[ThresholdPoint, ...]:
    """Precision/recall/F1 at each threshold (default: distinct scores)."""
    score_list, label_list = _validate(scores, labels)
    if thresholds is None:
        sweep: Sequence[float] = sorted(set(score_list), reverse=True)
    else:
        sweep = [float(value) for value in thresholds]
    return tuple(
        precision_recall_f1(score_list, label_list, threshold) for threshold in sweep
    )


def operating_point_auc(
    scores: Sequence[float], labels: Sequence[Any], threshold: float
) -> float:
    """AUC of the *thresholded* classifier: balanced accuracy at one cut.

    The area under the two-segment ROC curve through the single operating
    point ``score >= threshold``, i.e. ``(TPR + (1 − FPR)) / 2``.  Unlike
    the full :func:`auc` this is **not** invariant under monotone rescaling
    — it measures whether the separation is usable at a fixed threshold
    (for reputation schemes: the admission threshold), which is exactly
    where a ranking with a vanishing margin scores no better than chance
    (0.5).  NaN when either class is empty.
    """
    score_list, label_list = _validate(scores, labels)
    positives = sum(label_list)
    negatives = len(label_list) - positives
    if positives == 0 or negatives == 0:
        return float("nan")
    true_positives, false_positives, _ = _confusion(score_list, label_list, threshold)
    return (true_positives / positives + 1.0 - false_positives / negatives) / 2.0


def time_to_detection(
    history: Sequence[tuple[float, float]], threshold: float
) -> float | None:
    """First sample time at which a score drops below ``threshold``.

    ``history`` is the ``(time, score)`` sequence of one identity (e.g.
    :attr:`repro.detection.labels.PeerLabel.history`).  Returns ``None``
    when the score never fell below the threshold — the identity was never
    "detected" at this operating point.
    """
    for time, score in history:
        if score < threshold:
            return float(time)
    return None
