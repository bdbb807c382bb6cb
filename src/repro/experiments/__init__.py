"""Experiment harness: one module per table/figure of the paper.

Every experiment follows the same contract (:class:`~repro.experiments.base.Experiment`):
``run()`` executes the underlying parameter sweep at a configurable scale and
number of repeats and returns an :class:`~repro.experiments.base.ExperimentResult`
holding the series the paper plots; ``checks()`` returns the shape
expectations extracted from the paper's text, which
:meth:`~repro.experiments.base.Experiment.validate` evaluates against a result.

Experiment identifiers:

=========  ==========================================================
``table1``  Table 1 — simulation parameters
``figure1`` Figure 1 — uncooperative vs cooperative peer growth
``success`` §4.1 text — decision success rate with/without introductions
``figure2`` Figure 2 — cooperative reputation over time vs arrival rate
``figure3`` Figure 3 — final composition vs proportion of naive introducers
``figure4`` Figure 4 — final counts and refusals vs amount of reputation lent
``figure5`` Figure 5 — final proportions vs amount of reputation lent
``figure6`` Figure 6 — final counts and refusals vs freerider arrival fraction
``scheme_comparison`` cross-backend newcomer/whitewashing table (ours)
``robustness_matrix`` scheme x attack grid over the adversary registry (ours)
``detection_eval`` detection ranking + calibration per scheme x attack (ours)
=========  ==========================================================
"""

from .base import Experiment, ExperimentResult
from .table1_parameters import Table1Parameters
from .figure1_growth import Figure1Growth
from .success_rate import SuccessRateExperiment
from .figure2_reputation_time import Figure2ReputationOverTime
from .figure3_naive_proportion import Figure3NaiveProportion
from .figure4_lent_amount import Figure4LentAmount
from .figure5_lent_proportion import Figure5LentProportion
from .figure6_freerider_fraction import Figure6FreeriderFraction
from .scheme_comparison import SchemeComparison
from .robustness_matrix import RobustnessMatrix
from .detection_eval import DetectionEval
from .runner import EXPERIMENTS, make_experiment, render_report

__all__ = [
    "Experiment",
    "ExperimentResult",
    "Table1Parameters",
    "Figure1Growth",
    "SuccessRateExperiment",
    "Figure2ReputationOverTime",
    "Figure3NaiveProportion",
    "Figure4LentAmount",
    "Figure5LentProportion",
    "Figure6FreeriderFraction",
    "SchemeComparison",
    "RobustnessMatrix",
    "DetectionEval",
    "EXPERIMENTS",
    "make_experiment",
    "render_report",
]
