"""Detection quality over the scheme × attack grid.

The robustness matrix (:mod:`repro.experiments.robustness_matrix`) reports
what an attack *bought*; this experiment asks the classifier question the
paper's claim rests on — does the scheme actually rank known adversary
identities below honest peers, and is its score usable as a probability of
good service?  Same grid, same fan-out (every cell is an independent
:class:`~repro.parallel.specs.RunSpec` batch through the service
executor), but each cell is scored with the ground-truth labels the engine
attaches to adversary runs (:mod:`repro.detection`):

* **auc** — ranking AUC of suspicion (negated final reputation) against
  ``is_adversary``: 1.0 means every adversary ranked below every honest
  member, 0.5 is chance;
* **admission auc** — the same separation measured *at the admission
  threshold* (balanced accuracy of the thresholded classifier).  This is
  the usable-margin number: tit-for-tat can rank whitewashers perfectly
  while holding them at 0.89 reputation, which detects nothing at any
  fixed gate;
* **average precision** — precision-weighted recall of the suspicion
  ranking;
* **brier** / **ece** — reputation read as probability-of-good-service
  against the ground-truth cooperative flag;
* **time to detection** — mean first sample time at which an adversary
  identity's score fell below the admission threshold (NaN when none was
  ever detected — itself a finding).

Note the labels mark *adversary-controlled* identities, not uncooperative
ones: slanderers serve honestly while lying about others and churn-storm
joiners are cooperative, so low ranking AUC in those columns is the
expected reading, not a failure.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..analysis.comparison import ShapeCheck
from ..detection import (
    LabelSet,
    auc,
    average_precision,
    brier_score,
    expected_calibration_error,
    operating_point_auc,
    time_to_detection,
)
from ..workloads.sweep import aggregate_mean
from ._attack_grid import SchemeAttackGrid
from .base import ExperimentResult

__all__ = [
    "DetectionEval",
    "detection_auc",
    "detection_admission_auc",
    "detection_average_precision",
    "detection_brier",
    "detection_ece",
    "detection_mean_time_to_detection",
]

#: Minimum labelled adversary identities before a comparative check means
#: anything (mirrors the robustness matrix's arrivals guard).
_MIN_ADVERSARIES = 2.0

#: The detection metrics every cell emits, in series order.
_METRICS: tuple[tuple[str, "Callable[[LabelSet], float]"], ...]


def detection_auc(labels: LabelSet) -> float:
    """Ranking AUC: P(adversary scored below honest peer), ties half."""
    suspicion, flags = labels.suspicion()
    return auc(suspicion, flags)


def detection_admission_auc(labels: LabelSet) -> float:
    """Balanced accuracy of "score below the admission threshold" calls."""
    suspicion, flags = labels.suspicion()
    # score < threshold  <=>  suspicion > -threshold; nudge the cut so the
    # >= convention of operating_point_auc excludes exact threshold scores.
    return operating_point_auc(suspicion, flags, -labels.threshold + 1e-12)


def detection_average_precision(labels: LabelSet) -> float:
    """Average precision of the suspicion ranking."""
    suspicion, flags = labels.suspicion()
    return average_precision(suspicion, flags)


def detection_brier(labels: LabelSet) -> float:
    """Brier score of reputation as probability-of-good-service."""
    probabilities, outcomes = labels.service_probabilities()
    return brier_score(probabilities, outcomes)


def detection_ece(labels: LabelSet) -> float:
    """Expected calibration error of reputation as a probability."""
    probabilities, outcomes = labels.service_probabilities()
    return expected_calibration_error(probabilities, outcomes)


def detection_mean_time_to_detection(labels: LabelSet) -> float:
    """Mean detection time over the adversaries that were ever detected."""
    total = 0.0
    count = 0
    for label in labels.labels:
        if not label.is_adversary:
            continue
        detected = time_to_detection(label.history, labels.threshold)
        if detected is not None:
            total += detected
            count += 1
    return total / count if count else float("nan")


_METRICS = (
    ("auc", detection_auc),
    ("admission auc", detection_admission_auc),
    ("average precision", detection_average_precision),
    ("brier", detection_brier),
    ("ece", detection_ece),
    ("time to detection", detection_mean_time_to_detection),
)


class DetectionEval(SchemeAttackGrid):
    """Ranking + calibration metrics per (scheme, attack) cell."""

    experiment_id = "detection_eval"
    title = "Detection quality — ranking and calibration per scheme x attack"
    y_label = "metric value"
    qualitative = "detection quality"

    def run(self, progress: Callable[[str], None] | None = None) -> ExperimentResult:
        result = self._new_result()
        outcome = self._run_grid(result, progress=progress)
        result.notes.append(
            "labels mark adversary-controlled identities, not uncooperative "
            "ones: low AUC under slander/churn_storm (honest-serving "
            "identities) is the expected reading"
        )

        def cell_mean(
            scheme: str, attack: str, metric: Callable[[LabelSet], float]
        ) -> float:
            values = [
                metric(LabelSet.from_summary(summary))
                for summary in outcome.summaries_at(self.cell_label(scheme, attack))
            ]
            mean, _ = aggregate_mean(values)
            return mean

        for attack in self.attacks:
            for metric_name, metric in _METRICS:
                result.series[f"{attack}: {metric_name}"] = [
                    (float(index), cell_mean(scheme, attack, metric))
                    for index, scheme in enumerate(self.schemes)
                ]
        first_cell = outcome.summaries_at(
            self.cell_label(self.schemes[0], self.attacks[0])
        )
        first_labels = LabelSet.from_summary(first_cell[0])
        result.scalars["labelled peers per run"] = float(len(first_labels))
        result.scalars["adversary identities per run"] = float(
            len(first_labels.adversary_ids())
        )
        result.scalars["admission threshold"] = first_labels.threshold
        return result

    # ------------------------------------------------------------------ #
    # Shape checks                                                         #
    # ------------------------------------------------------------------ #
    def _lending_outranks_tft(
        self, result: ExperimentResult, attack: str, margin: float = 0.1
    ) -> tuple[bool, str]:
        """Does rocq separate adversaries at the admission threshold where
        tit-for-tat does not?"""
        if "rocq" not in self.schemes or "tit_for_tat" not in self.schemes:
            return True, "rocq/tit_for_tat not both part of this grid"
        if (
            result.scalars.get("adversary identities per run", 0.0)
            < _MIN_ADVERSARIES
        ):
            return True, "too few adversary identities at this scale"
        row = self._row(result, attack, "admission auc")
        if "rocq" not in row or "tit_for_tat" not in row:
            return True, "grid row incomplete at this scale"
        outranks = row["rocq"] > row["tit_for_tat"] + margin
        return outranks, (
            f"under {attack} lending separates adversaries from honest peers "
            f"at the admission threshold with AUC {row['rocq']:.2f} vs "
            f"{row['tit_for_tat']:.2f} for tit_for_tat"
        )

    def checks(self) -> Sequence[ShapeCheck]:
        def auc_within_bounds(result: ExperimentResult) -> tuple[bool, str]:
            values = [
                value
                for attack in self.attacks
                for metric_name in ("auc", "admission auc")
                for _, value in result.series[f"{attack}: {metric_name}"]
                if value == value
            ]
            in_range = all(0.0 <= value <= 1.0 for value in values)
            return in_range, f"{len(values)} finite AUC cell(s) all within [0, 1]"

        def better_calibrated(result: ExperimentResult) -> tuple[bool, str]:
            if "rocq" not in self.schemes or "tit_for_tat" not in self.schemes:
                return True, "rocq/tit_for_tat not both part of this grid"
            row = self._row(result, "whitewash_waves", "brier")
            if "rocq" not in row or "tit_for_tat" not in row:
                return True, "grid row incomplete at this scale"
            better = row["rocq"] < row["tit_for_tat"]
            return better, (
                f"whitewash_waves Brier score {row['rocq']:.3f} (rocq) vs "
                f"{row['tit_for_tat']:.3f} (tit_for_tat)"
            )

        checks: list[ShapeCheck] = [
            ShapeCheck(
                name="every cell of the grid produced every detection metric",
                predicate=lambda result: self._complete(result, len(_METRICS)),
                paper_claim="detection quality is a full scheme x attack grid",
            ),
            ShapeCheck(
                name="every AUC lies within [0, 1]",
                predicate=auc_within_bounds,
                paper_claim="ranking metrics are well-formed probabilities "
                "of correct pairwise ordering",
            ),
        ]
        if "whitewash_waves" in self.attacks:
            checks.append(
                ShapeCheck(
                    name="lending ranks whitewashers below honest peers "
                    "where tit_for_tat cannot",
                    predicate=lambda result: self._lending_outranks_tft(
                        result, "whitewash_waves"
                    ),
                    paper_claim="'without the system being vulnerable to "
                    "whitewashing' — usable separation at the admission "
                    "threshold, not just ordering",
                )
            )
            checks.append(
                ShapeCheck(
                    name="lending reputation is the better-calibrated "
                    "probability of good service",
                    predicate=better_calibrated,
                    paper_claim="reputation predicts service quality "
                    "(ranking and calibration are separate axes)",
                )
            )
        return checks
