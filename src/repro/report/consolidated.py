"""The consolidated report generator.

Merges the robustness matrix and the detection evaluation into one JSON +
Markdown artifact.  Everything here is deterministic at a fixed seed: the
two experiments derive every run seed from (sweep, point, repeat) identity,
and neither the document nor its rendering contains a wall-clock reading —
so two invocations with the same configuration produce byte-identical
bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..analysis.storage import _json_safe, atomic_write
from ..analysis.tables import format_markdown_table
from ..api.errors import UnknownNameError
from ..config import ADVERSARY_STRATEGIES, SimulationParameters

__all__ = [
    "REPORT_SECTIONS",
    "resolve_report_sections",
    "planned_transactions",
    "generate_report",
    "render_markdown",
    "write_report",
]

#: Section name → the experiment that produces it, in presentation order.
_SECTION_EXPERIMENTS: dict[str, str] = {
    "robustness": "robustness_matrix",
    "detection": "detection_eval",
}

#: The sections of the consolidated report, in presentation order.
REPORT_SECTIONS: tuple[str, ...] = tuple(_SECTION_EXPERIMENTS)


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
    from ..api.catalogue import resolve_scheme

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
    from ..experiments import make_experiment

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
    service: "Any | None" = None,
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
    results: dict[str, Any] = {}
    if experiment_ids:
        from ..api.service import SimulationService

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
    check_rows = [
        {
            "experiment": _SECTION_EXPERIMENTS[section],
            "check": check["name"],
            "passed": check["passed"],
            "detail": check["detail"],
        }
        for section in selected
        for check in document[section]["checks"]
    ]
    document["checks"] = {
        "passed": sum(1 for row in check_rows if row["passed"]),
        "total": len(check_rows),
        "failed": [row["check"] for row in check_rows if not row["passed"]],
        "rows": check_rows,
    }
    return document


def _format_value(value: Any) -> Any:
    if isinstance(value, float):
        return f"{value:.4g}"
    return value


def _experiment_markdown(lines: list[str], payload: Mapping[str, Any]) -> None:
    """Append one experiment section: notes, scalars, series, checks."""
    for note in payload.get("notes", []):
        lines.append(f"*{note}*")
    if payload.get("notes"):
        lines.append("")
    scalars = payload.get("scalars", {})
    if scalars:
        lines.append(
            format_markdown_table(
                ["quantity", "value"],
                [[name, _format_value(value)] for name, value in scalars.items()],
            )
        )
        lines.append("")
    series = payload.get("series", {})
    if series:
        ticks = payload.get("x_ticks", {})
        xs = sorted({x for points in series.values() for x, _ in points})
        headers = [payload.get("x_label", "x"), *series]
        rows = []
        for x in xs:
            lookup = {
                name: {px: py for px, py in points} for name, points in series.items()
            }
            rows.append(
                [ticks.get(str(x), x)]
                + [_format_value(lookup[name].get(x, float("nan"))) for name in series]
            )
        lines.append(format_markdown_table(headers, rows))
        lines.append("")
    checks = payload.get("checks", [])
    if checks:
        lines.append(
            format_markdown_table(
                ["shape check", "status", "detail"],
                [
                    [
                        check["name"],
                        "PASS" if check["passed"] else "FAIL",
                        check["detail"],
                    ]
                    for check in checks
                ],
            )
        )
        lines.append("")


def render_markdown(document: Mapping[str, Any]) -> str:
    """Render the consolidated document as Markdown."""
    config = document["config"]
    lines = ["# Consolidated report", ""]
    lines.append(
        format_markdown_table(
            ["setting", "value"],
            [
                ["sections", ", ".join(document["sections"])],
                ["scale", _format_value(config["scale"])],
                ["repeats", config["repeats"]],
                ["seed", config["seed"]],
                ["schemes", ", ".join(config["schemes"] or []) or "(all)"],
                ["attacks", ", ".join(config["attacks"] or []) or "(all)"],
            ],
        )
    )
    lines.append("")
    checks = document.get("checks")
    if checks is not None and checks["total"]:
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
                    [
                        row["experiment"],
                        row["check"],
                        "PASS" if row["passed"] else "FAIL",
                        row["detail"],
                    ]
                    for row in checks["rows"]
                ],
            )
        )
        lines.append("")
    for section in document["sections"]:
        payload = document[section]
        lines.append(f"## {payload['experiment_id']} — {payload['title']}")
        lines.append("")
        _experiment_markdown(lines, payload)
    return "\n".join(lines).rstrip() + "\n"


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
