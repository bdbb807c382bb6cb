"""Detection-quality evaluation: did the scheme actually *find* the bad guys?

The paper's figures report aggregate outcomes (community composition,
success rates); this subsystem asks the classifier question behind them —
how well each reputation scheme ranks known adversary identities below
honest peers, and whether a reputation score is usable as a calibrated
probability of good service.  Three modules:

:mod:`repro.detection.labels`
    Ground-truth labelling: :class:`LabelSet` extracts per-identity
    adversary labels, final scores and score histories from a finished
    run's :class:`~repro.metrics.summary.RunSummary` (the engine records
    which identities the configured ``AdversarySpec`` injected, including
    burned whitewash identities).
:mod:`repro.detection.ranking`
    Threshold-free ranking metrics: ROC curve + AUC with
    deterministic tie handling, precision/recall/F1 threshold sweeps,
    average precision, precision@k, time-to-detection.
:mod:`repro.detection.calibration`
    Reputation-as-probability metrics: Brier score, expected calibration
    error and reliability diagrams with fixed binning.

The ``detection_eval`` experiment (:mod:`repro.experiments.detection_eval`)
runs these metrics over the scheme × attack grid, and ``python -m repro
report`` folds the results into the consolidated report.
"""

from .calibration import (
    ReliabilityBin,
    ReliabilityDiagram,
    brier_score,
    expected_calibration_error,
    reliability_diagram,
)
from .labels import LabelSet, PeerLabel
from .ranking import (
    RocCurve,
    ThresholdPoint,
    auc,
    average_precision,
    operating_point_auc,
    precision_at_k,
    precision_recall_f1,
    roc_curve,
    threshold_sweep,
    time_to_detection,
)

__all__ = [
    "LabelSet",
    "PeerLabel",
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
    "ReliabilityBin",
    "ReliabilityDiagram",
    "brier_score",
    "expected_calibration_error",
    "reliability_diagram",
]
