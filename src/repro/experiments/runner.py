"""Run the experiment suite and report it: the suite's one report path.

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

The consolidated report
-----------------------
``python -m repro report`` and ``GET /report`` on :mod:`repro.api.server`
run the two grid experiments — the robustness matrix (what each attack
bought under each scheme) and the detection evaluation (how well each
scheme ranked the attackers) — as the report's ``robustness`` and
``detection`` sections.  :func:`generate_report` returns the JSON document,
:func:`render_markdown` and :func:`render_json` render it and
:func:`write_report` persists both.  The document holds no wall-clock
reading and every run seed is derived from the run's identity, so it is
byte-identical at a fixed seed.

Both reports share one Markdown renderer, so an experiment's section reads
the same in either, and one verdict counter, :func:`check_summary`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, Type

from ..analysis.storage import _json_safe, atomic_write
from ..analysis.tables import format_markdown_table
from ..api.catalogue import resolve_scenario, resolve_scheme
from ..api.errors import UnknownNameError
from ..api.service import SimulationService
from ..config import ADVERSARY_STRATEGIES, SimulationParameters
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
    "REPORT_SECTIONS",
    "require_known",
    "make_experiment",
    "execution_order",
    "suite_base",
    "resolve_report_sections",
    "planned_transactions",
    "generate_report",
    "check_summary",
    "render_report",
    "render_markdown",
    "render_json",
    "write_report",
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

#: Consolidated report section → the experiment that produces it, in
#: presentation order.
_SECTION_EXPERIMENTS: dict[str, str] = {
    "robustness": "robustness_matrix",
    "detection": "detection_eval",
}

#: The sections of the consolidated report, in presentation order.
REPORT_SECTIONS: tuple[str, ...] = tuple(_SECTION_EXPERIMENTS)


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


# --------------------------------------------------------------------- #
# Selection                                                               #
# --------------------------------------------------------------------- #
def suite_base(
    scenario: str | None,
    *,
    seed: int,
    scale: float | None,
    scheme: str | None = None,
) -> tuple[SimulationParameters | None, float]:
    """The base parameters and horizon scale a suite runs with.

    ``scenario`` names base parameters in the scenario registry (``None``:
    the paper's defaults) and ``scheme`` swaps the reputation backend of
    whichever base is used.  A named scenario is already sized, so ``scale``
    defaults to 1.0 for one; only the paper-default base needs the
    laptop-friendly 0.1 downscale.
    """
    base_params: SimulationParameters | None = None
    if scenario is not None:
        base_params = resolve_scenario(scenario, seed=seed)
    if scheme is not None:
        if base_params is None:
            base_params = SimulationParameters(seed=seed)
        base_params = base_params.with_overrides(
            reputation_scheme=resolve_scheme(scheme)
        )
    if scale is None:
        scale = 0.1 if scenario is None else 1.0
    return base_params, scale


def resolve_report_sections(names: Sequence[str] | None) -> tuple[str, ...]:
    """Validated section names in canonical order (``None`` = all).

    Raises :class:`~repro.api.errors.UnknownNameError` — and therefore gets
    the CLI's did-you-mean + exit-code-2 treatment — for anything outside
    :data:`REPORT_SECTIONS`.
    """
    if names is None:
        return REPORT_SECTIONS
    requested = list(dict.fromkeys(names))
    for name in requested:
        if name not in REPORT_SECTIONS:
            raise UnknownNameError("report section", name, REPORT_SECTIONS)
    return tuple(section for section in REPORT_SECTIONS if section in requested)


def _resolve_grid(
    schemes: Sequence[str] | None, attacks: Sequence[str] | None
) -> dict[str, Any]:
    """Validated ``schemes``/``attacks`` constructor kwargs for the grids."""
    kwargs: dict[str, Any] = {}
    if schemes is not None:
        kwargs["schemes"] = [resolve_scheme(name) for name in schemes]
    if attacks is not None:
        for name in attacks:
            if name not in ADVERSARY_STRATEGIES:
                raise UnknownNameError(
                    "adversary strategy", name, ADVERSARY_STRATEGIES
                )
        kwargs["attacks"] = list(attacks)
    return kwargs


# --------------------------------------------------------------------- #
# The consolidated report document                                        #
# --------------------------------------------------------------------- #
def planned_transactions(
    sections: Sequence[str] | None = None,
    *,
    scale: float = 0.1,
    repeats: int = 3,
    seed: int = 1,
    base_params: SimulationParameters | None = None,
    schemes: Sequence[str] | None = None,
    attacks: Sequence[str] | None = None,
) -> int:
    """Transactions :func:`generate_report` would simulate for these arguments.

    Repeats × grid cells × each cell's capped horizon, summed over the
    selected sections.  Builds the section experiments to read their grid
    and horizon, but runs nothing; runs a cache already holds still count.
    """
    grid_kwargs = _resolve_grid(schemes, attacks)
    total = 0
    for section in resolve_report_sections(sections):
        experiment = make_experiment(
            _SECTION_EXPERIMENTS[section],
            scale=scale,
            repeats=repeats,
            seed=seed,
            base_params=base_params,
            **grid_kwargs,
        )
        cells = len(experiment.schemes) * len(experiment.attacks)
        scaled = experiment.base_params.scaled(experiment._effective_scale())
        total += repeats * cells * scaled.num_transactions
    return total


def generate_report(
    sections: Sequence[str] | None = None,
    *,
    service: SimulationService | None = None,
    scale: float = 0.1,
    repeats: int = 3,
    seed: int = 1,
    base_params: SimulationParameters | None = None,
    schemes: Sequence[str] | None = None,
    attacks: Sequence[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Generate the consolidated report document.

    ``sections`` selects which of :data:`REPORT_SECTIONS` to include (all
    by default); ``schemes``/``attacks`` restrict both grid experiments to
    a sub-grid (the CI smoke runs rocq + tit_for_tat under whitewash_waves
    only); ``service`` reuses an existing
    :class:`~repro.api.service.SimulationService` (its worker pool and run
    cache), otherwise a throwaway serial service is used.  The experiment
    sections embed each result's full ``to_dict()`` document, so the JSON
    artifact is a superset of what ``--out`` of the experiment CLI stores.
    """
    selected = resolve_report_sections(sections)
    grid_kwargs = _resolve_grid(schemes, attacks)
    experiment_ids = [_SECTION_EXPERIMENTS[section] for section in selected]
    document: dict[str, Any] = {
        "report": "consolidated",
        "sections": list(selected),
        "config": {
            "scale": scale,
            "repeats": repeats,
            "seed": seed,
            "schemes": list(grid_kwargs.get("schemes", [])) or None,
            "attacks": list(grid_kwargs.get("attacks", [])) or None,
            "scenario_params": (
                base_params.to_dict() if base_params is not None else None
            ),
        },
    }
    results: dict[str, ExperimentResult] = {}
    if experiment_ids:
        owned = service is None
        active = service if service is not None else SimulationService()
        try:
            results = active.run_experiments(
                scale=scale,
                repeats=repeats,
                seed=seed,
                only=experiment_ids,
                progress=progress,
                base_params=base_params,
                experiment_kwargs={
                    experiment_id: grid_kwargs for experiment_id in experiment_ids
                },
            )
        finally:
            if owned:
                active.close()
    for section in selected:
        document[section] = results[_SECTION_EXPERIMENTS[section]].to_dict()
    document["checks"] = check_summary(results)
    return document


# --------------------------------------------------------------------- #
# Verdicts                                                                #
# --------------------------------------------------------------------- #
def check_summary(results: Mapping[str, ExperimentResult]) -> dict[str, Any]:
    """Every shape check of ``results`` as a row, with the pass/fail counts.

    The one verdict counter: both reports' summary tables, the report
    document's ``checks`` block and the exit codes of ``repro experiment``
    and ``repro report`` all take their counts from it.
    """
    rows = [
        {
            "experiment": experiment_id,
            "check": check.name,
            "passed": check.passed,
            "detail": check.detail,
        }
        for experiment_id, result in results.items()
        for check in result.checks
    ]
    return {
        "passed": sum(1 for row in rows if row["passed"]),
        "total": len(rows),
        "failed": [row["check"] for row in rows if not row["passed"]],
        "rows": rows,
    }


# --------------------------------------------------------------------- #
# Rendering                                                               #
# --------------------------------------------------------------------- #
def _verdict(row: Mapping[str, Any]) -> str:
    """The status cell of one :func:`check_summary` row."""
    return "PASS" if row["passed"] else "FAIL"


def _markdown(lines: list[str], results: Mapping[str, ExperimentResult]) -> str:
    """``lines`` (a report's title and summary), then one section per result.

    A section holds the experiment's notes, its scalars, its series as one
    x-indexed table and its shape checks, whichever it has.
    """
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
        rows = check_summary({experiment_id: result})["rows"]
        if rows:
            lines.append(
                format_markdown_table(
                    ["shape check", "status", "detail"],
                    [[row["check"], _verdict(row), row["detail"]] for row in rows],
                )
            )
            lines.append("")
    return "\n".join(lines)


def render_report(results: Mapping[str, ExperimentResult]) -> str:
    """Render a Markdown report of every result and its shape checks."""
    lines = ["# Reproduction report", ""]
    summary_rows = []
    for experiment_id, result in results.items():
        checks = check_summary({experiment_id: result})
        passed, total = checks["passed"], checks["total"]
        summary_rows.append(
            [experiment_id, result.title, f"{passed}/{total}" if total else "n/a"]
        )
    lines.append(
        format_markdown_table(["id", "experiment", "checks passed"], summary_rows)
    )
    lines.append("")
    return _markdown(lines, results)


def render_markdown(document: Mapping[str, Any]) -> str:
    """Render the consolidated document as Markdown."""
    config = document["config"]
    lines = ["# Consolidated report", ""]
    lines.append(
        format_markdown_table(
            ["setting", "value"],
            [
                ["sections", ", ".join(document["sections"])],
                ["scale", config["scale"]],
                ["repeats", config["repeats"]],
                ["seed", config["seed"]],
                ["schemes", ", ".join(config["schemes"] or []) or "(all)"],
                ["attacks", ", ".join(config["attacks"] or []) or "(all)"],
            ],
        )
    )
    lines.append("")
    checks = document["checks"]
    if checks["total"]:
        status = "all passed" if not checks["failed"] else (
            f"{len(checks['failed'])} FAILED"
        )
        lines.append(
            f"## Shape checks — {checks['passed']}/{checks['total']} ({status})"
        )
        lines.append("")
        lines.append(
            format_markdown_table(
                ["experiment", "shape check", "status", "detail"],
                [
                    [row["experiment"], row["check"], _verdict(row), row["detail"]]
                    for row in checks["rows"]
                ],
            )
        )
        lines.append("")
    results: dict[str, ExperimentResult] = {}
    for section in document["sections"]:
        payload = document[section]
        results[payload["experiment_id"]] = ExperimentResult.from_dict(payload)
    return _markdown(lines, results)


def render_json(document: Mapping[str, Any]) -> str:
    """The document as standard JSON: sorted keys, NaN sanitised to null.

    Sorted keys plus the :func:`repro.analysis.storage._json_safe`
    sanitisation (bare ``NaN`` tokens are not JSON) make the bytes a pure
    function of the document — the property the determinism test pins.
    """
    return (
        json.dumps(_json_safe(dict(document)), indent=2, sort_keys=True) + "\n"
    )


def write_report(
    document: Mapping[str, Any], out_dir: str | Path
) -> tuple[Path, Path]:
    """Write ``report.json`` and ``report.md`` under ``out_dir``.

    Writes are atomic (:func:`~repro.analysis.storage.atomic_write`) and the
    JSON is serialised with sorted keys so the artifact diffs — and hashes —
    stably.  Returns ``(json_path, markdown_path)``.
    """
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / "report.json"
    markdown_path = directory / "report.md"
    for path, text in (
        (json_path, render_json(document)),
        (markdown_path, render_markdown(document)),
    ):
        with atomic_write(path) as handle:
            handle.write(text)
    return json_path, markdown_path
