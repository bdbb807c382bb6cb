"""Run every experiment and render a paper-vs-measured report.

Usage from Python::

    from repro.api import SimulationService
    from repro.experiments import render_report

    if __name__ == "__main__":  # worker processes re-import this script
        with SimulationService(jobs=4) as service:
            results = service.run_experiments(scale=0.05, repeats=2, seed=1)
        print(render_report(results))

or from the command line::

    python -m repro experiment --scale 0.05 --repeats 2 --out results/

Parallel execution
------------------
Each experiment expands its parameter sweep into a batch of
:class:`~repro.parallel.specs.RunSpec` objects — one fully resolved
(parameters, seed) pair per repeat of each sweep point — and submits the
batch to an executor from :mod:`repro.parallel`.  ``--jobs 1`` runs every
simulation inline in this process; ``--jobs N`` runs N at a time on a
:class:`concurrent.futures.ProcessPoolExecutor`.

Because every spec carries a seed derived deterministically from its (sweep
name, point label, repeat index) identity, results are **bit-identical**
for any job count.

``--cache-dir DIR`` additionally persists every completed run, keyed by
(parameter fingerprint, seed), so repeated invocations — and experiments
that share simulations, like Figures 4 and 5 — skip runs that were already
computed, in any order.  The fingerprint covers every parameter, including
``reputation_scheme``, so runs of different backends never collide.

Scenarios and schemes
---------------------
``--scenario NAME`` resolves the base parameters through the scenario
registry (:mod:`repro.workloads.registry`; ``python -m repro catalogue``
prints every registry) and ``--scheme NAME`` swaps the reputation backend
the simulations run on, e.g.::

    python -m repro experiment \
        --only scheme_comparison --scenario tiny_test --jobs 2
"""

from __future__ import annotations

from typing import Mapping, Type

from ..analysis.tables import format_markdown_table
from ..config import SimulationParameters
from ..parallel.cache import RunCache
from ..parallel.executor import Executor
from .base import Experiment, ExperimentResult
from .detection_eval import DetectionEval
from .figure1_growth import Figure1Growth
from .figure2_reputation_time import Figure2ReputationOverTime
from .figure3_naive_proportion import Figure3NaiveProportion
from .figure4_lent_amount import Figure4LentAmount
from .figure5_lent_proportion import Figure5LentProportion
from .figure6_freerider_fraction import Figure6FreeriderFraction
from .robustness_matrix import RobustnessMatrix
from .scheme_comparison import SchemeComparison
from .success_rate import SuccessRateExperiment
from .table1_parameters import Table1Parameters

__all__ = [
    "EXPERIMENTS",
    "require_known",
    "make_experiment",
    "execution_order",
    "render_report",
]

#: Registry of every experiment: the paper's artefacts in presentation order,
#: then the reproduction's own additions (the cross-scheme comparison and the
#: scheme x attack robustness matrix).
EXPERIMENTS: dict[str, Type[Experiment]] = {
    "table1": Table1Parameters,
    "figure1": Figure1Growth,
    "success": SuccessRateExperiment,
    "figure2": Figure2ReputationOverTime,
    "figure3": Figure3NaiveProportion,
    "figure4": Figure4LentAmount,
    "figure5": Figure5LentProportion,
    "figure6": Figure6FreeriderFraction,
    "scheme_comparison": SchemeComparison,
    "robustness_matrix": RobustnessMatrix,
    "detection_eval": DetectionEval,
}


def require_known(experiment_id: str) -> Type[Experiment]:
    """The registered experiment class, or a helpful KeyError."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from exc


def make_experiment(
    experiment_id: str,
    scale: float = 0.1,
    repeats: int = 3,
    seed: int = 1,
    base_params: SimulationParameters | None = None,
    executor: Executor | None = None,
    cache: RunCache | None = None,
    **kwargs,
) -> Experiment:
    """Instantiate the experiment registered under ``experiment_id``.

    Extra keyword arguments are forwarded to the experiment's constructor —
    e.g. ``schemes=...``/``attacks=...`` to restrict the grid experiments to
    a sub-grid (the report generator's smoke configuration does this).
    """
    experiment_cls = require_known(experiment_id)
    return experiment_cls(
        scale=scale,
        repeats=repeats,
        seed=seed,
        base_params=base_params,
        executor=executor,
        cache=cache,
        **kwargs,
    )


def execution_order(selected: list[str]) -> list[str]:
    """Selected ids in execution order: figure4 always precedes figure5.

    Figure 5 reuses Figure 4's sweep outcome, which only exists once Figure 4
    has run — so when both are requested, figure4 is moved directly in front
    of figure5 no matter how the ids were ordered.  Results are re-assembled
    in the requested order afterwards.
    """
    order = list(selected)
    if "figure4" in order and "figure5" in order:
        order.remove("figure4")
        order.insert(order.index("figure5"), "figure4")
    return order


def render_report(results: Mapping[str, ExperimentResult]) -> str:
    """Render a Markdown report of every result and its shape checks."""
    lines = ["# Reproduction report", ""]
    summary_rows = []
    for experiment_id, result in results.items():
        passed = sum(1 for check in result.checks if check.passed)
        total = len(result.checks)
        summary_rows.append(
            [experiment_id, result.title, f"{passed}/{total}" if total else "n/a"]
        )
    lines.append(
        format_markdown_table(["id", "experiment", "checks passed"], summary_rows)
    )
    lines.append("")
    for experiment_id, result in results.items():
        lines.append(f"## {experiment_id} — {result.title}")
        lines.append("")
        if result.notes:
            for note in result.notes:
                lines.append(f"*{note}*")
            lines.append("")
        if result.scalars:
            lines.append(
                format_markdown_table(
                    ["quantity", "value"],
                    [[name, value] for name, value in result.scalars.items()],
                )
            )
            lines.append("")
        if result.series:
            lines.append(
                format_markdown_table(result.table_headers(), result.table_rows())
            )
            lines.append("")
        if result.checks:
            lines.append(
                format_markdown_table(
                    ["shape check", "status", "detail"],
                    [
                        [check.name, "PASS" if check.passed else "FAIL", check.detail]
                        for check in result.checks
                    ],
                )
            )
            lines.append("")
    return "\n".join(lines)
