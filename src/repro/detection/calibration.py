"""Calibration metrics: reputation as a probability of good service.

Ranking quality and calibration are separate axes — a scheme can order
adversaries perfectly below honest peers while its absolute scores mean
nothing as probabilities (and vice versa), so both must be reported.  The
functions here read each reputation score as the predicted probability
that the peer serves cooperatively and compare against the ground-truth
cooperative flag:

* :func:`brier_score` — mean squared error of the probability forecast;
* :func:`reliability_diagram` — predicted probability vs observed
  cooperative frequency over **fixed** equal-width bins (binning never
  adapts to the data, so two runs bin identically);
* :func:`expected_calibration_error` — bin-weighted mean absolute gap
  between confidence and observed frequency.

Standard library only, JSON-serialisable dataclasses, no sklearn; float
sums run in numpy's pairwise order (:func:`repro.numeric.pairwise_sum`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..numeric import pairwise_sum

__all__ = [
    "ReliabilityBin",
    "ReliabilityDiagram",
    "brier_score",
    "expected_calibration_error",
    "reliability_diagram",
]


def _validate(
    probabilities: Iterable[float], outcomes: Iterable[Any]
) -> tuple[list[float], list[bool]]:
    probability_list = [float(probability) for probability in probabilities]
    outcome_list = [bool(outcome) for outcome in outcomes]
    if len(probability_list) != len(outcome_list):
        raise ValueError(
            f"{len(probability_list)} probabilities but {len(outcome_list)} outcomes"
        )
    if any(value < 0.0 or value > 1.0 for value in probability_list):
        raise ValueError("probabilities must lie within [0, 1]")
    return probability_list, outcome_list


@dataclass(frozen=True)
class ReliabilityBin:
    """One fixed-width bin of a reliability diagram."""

    lower: float
    upper: float
    count: int
    #: Mean predicted probability of the samples in the bin (NaN if empty).
    mean_confidence: float
    #: Observed positive (cooperative) frequency in the bin (NaN if empty).
    observed_frequency: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "count": self.count,
            "mean_confidence": self.mean_confidence,
            "observed_frequency": self.observed_frequency,
        }


@dataclass(frozen=True)
class ReliabilityDiagram:
    """A full reliability diagram plus its headline scores."""

    bins: tuple[ReliabilityBin, ...]
    ece: float
    brier: float
    samples: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "bins": [bin.to_dict() for bin in self.bins],
            "ece": self.ece,
            "brier": self.brier,
            "samples": self.samples,
        }


def brier_score(probabilities: Sequence[float], outcomes: Sequence[Any]) -> float:
    """Mean squared error of the probability forecast (NaN when empty).

    0 is a perfect forecast; 0.25 is what the uninformative constant 0.5
    scores; a forecast can be worse than 1/4 only by being anti-calibrated.
    """
    probability_list, outcome_list = _validate(probabilities, outcomes)
    if not probability_list:
        return float("nan")
    errors = [value - outcome for value, outcome in zip(probability_list, outcome_list)]
    return pairwise_sum(error * error for error in errors) / len(errors)


def reliability_diagram(
    probabilities: Sequence[float],
    outcomes: Sequence[Any],
    num_bins: int = 10,
) -> ReliabilityDiagram:
    """Reliability diagram over ``num_bins`` equal-width bins (1.0 in the last)."""
    if num_bins < 1:
        raise ValueError(f"num_bins must be >= 1, got {num_bins}")
    probability_list, outcome_list = _validate(probabilities, outcomes)
    members: list[list[tuple[float, bool]]] = [[] for _ in range(num_bins)]
    for probability, outcome in zip(probability_list, outcome_list):
        members[min(int(probability * num_bins), num_bins - 1)].append(
            (probability, outcome)
        )
    bins = []
    weighted_gap = 0.0
    total = len(probability_list)
    for index, samples in enumerate(members):
        count = len(samples)
        if count:
            confidence = pairwise_sum(probability for probability, _ in samples) / count
            frequency = sum(outcome for _, outcome in samples) / count
            weighted_gap += (count / total) * abs(confidence - frequency)
        else:
            confidence = float("nan")
            frequency = float("nan")
        bins.append(
            ReliabilityBin(
                lower=index / num_bins,
                upper=(index + 1) / num_bins,
                count=count,
                mean_confidence=confidence,
                observed_frequency=frequency,
            )
        )
    return ReliabilityDiagram(
        bins=tuple(bins),
        ece=weighted_gap if total else float("nan"),
        brier=brier_score(probability_list, outcome_list),
        samples=total,
    )


def expected_calibration_error(
    probabilities: Sequence[float],
    outcomes: Sequence[Any],
    num_bins: int = 10,
) -> float:
    """ECE: bin-weighted |mean confidence − observed frequency| (NaN empty)."""
    return reliability_diagram(probabilities, outcomes, num_bins=num_bins).ece
