"""Common machinery shared by every experiment."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..analysis.comparison import CheckResult, ShapeCheck, evaluate_checks
from ..config import SimulationParameters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from ..parallel.cache import RunCache
    from ..parallel.executor import Executor
    from ..workloads.sweep import ParameterSweep, SweepResult

__all__ = ["ExperimentResult", "Experiment"]

#: An (x, y) point list, the unit every figure is made of.
Series = list[tuple[float, float]]


@dataclass
class ExperimentResult:
    """The data behind one regenerated table or figure."""

    experiment_id: str
    title: str
    x_label: str
    y_label: str
    #: The plotted series, keyed by legend label.
    series: dict[str, Series] = field(default_factory=dict)
    #: Scalar headline numbers (e.g. the two success rates).
    scalars: dict[str, float] = field(default_factory=dict)
    #: Free-text notes recorded by the experiment (scaling, caveats).
    notes: list[str] = field(default_factory=list)
    #: The base parameters the experiment ran with (post-scaling).
    params: SimulationParameters | None = None
    #: Shape-check outcomes filled in by :meth:`Experiment.validate`.
    checks: list[CheckResult] = field(default_factory=list)
    #: Optional display labels for x values (categorical sweeps, e.g. the
    #: scheme-comparison experiment, label rows instead of showing indices).
    x_ticks: dict[float, str] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Rendering                                                            #
    # ------------------------------------------------------------------ #
    def table_rows(self) -> list[list[object]]:
        """Rows of an x-indexed table with one column per series."""
        xs: list[float] = sorted({x for points in self.series.values() for x, _ in points})
        lookup = {
            name: {x: y for x, y in points} for name, points in self.series.items()
        }
        rows: list[list[object]] = []
        for x in xs:
            row: list[object] = [self.x_ticks.get(x, x)]
            for name in self.series:
                row.append(lookup[name].get(x, float("nan")))
            rows.append(row)
        return rows

    def table_headers(self) -> list[str]:
        """Headers matching :meth:`table_rows`."""
        return [self.x_label] + list(self.series)

    # ------------------------------------------------------------------ #
    # Serialisation                                                        #
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (used by ResultStore)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "series": {name: [[x, y] for x, y in pts] for name, pts in self.series.items()},
            "scalars": dict(self.scalars),
            "notes": list(self.notes),
            "params": self.params.to_dict() if self.params is not None else None,
            "x_ticks": {str(x): label for x, label in self.x_ticks.items()},
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }

    @property
    def all_checks_passed(self) -> bool:
        """Whether every evaluated shape check passed (False if none ran)."""
        return bool(self.checks) and all(check.passed for check in self.checks)


class Experiment(abc.ABC):
    """Base class for a table/figure reproduction.

    Parameters
    ----------
    scale:
        Horizon scaling relative to the paper's 500,000 transactions.  1.0 is
        the paper's operating point; the default 0.1 finishes in minutes on a
        laptop while preserving the qualitative shapes.
    repeats:
        Independent repetitions averaged per sweep point (the paper uses 10).
    seed:
        Master seed for reproducibility.
    base_params:
        Optional replacement for the paper-default base configuration.
    executor:
        Optional :class:`~repro.parallel.executor.Executor` the experiment's
        sweeps run on; ``None`` runs every simulation serially.  Results are
        identical either way — each run's seed is derived from its (sweep,
        point, repeat) identity, never from execution order.
    cache:
        Optional :class:`~repro.parallel.cache.RunCache`; sweeps skip any
        (params, seed) run the cache already holds.
    """

    experiment_id: str = "experiment"
    title: str = ""
    x_label: str = "x"
    y_label: str = "y"

    def __init__(
        self,
        scale: float = 0.1,
        repeats: int = 3,
        seed: int = 1,
        base_params: SimulationParameters | None = None,
        executor: "Executor | None" = None,
        cache: "RunCache | None" = None,
    ) -> None:
        self.scale = scale
        self.repeats = repeats
        self.seed = seed
        self.base_params = (
            base_params if base_params is not None else SimulationParameters(seed=seed)
        )
        self.executor = executor
        self.cache = cache

    # ------------------------------------------------------------------ #
    # Contract                                                             #
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def run(self, progress: Callable[[str], None] | None = None) -> ExperimentResult:
        """Execute the experiment and return its result."""

    def checks(self) -> Sequence[ShapeCheck]:
        """Shape expectations extracted from the paper (may be empty)."""
        return []

    def validate(self, result: ExperimentResult) -> list[CheckResult]:
        """Evaluate :meth:`checks` against ``result`` and record the outcomes."""
        outcomes = evaluate_checks(list(self.checks()), result)
        result.checks = outcomes
        return outcomes

    def run_and_validate(
        self, progress: Callable[[str], None] | None = None
    ) -> ExperimentResult:
        """Convenience: run, then validate, returning the annotated result."""
        result = self.run(progress=progress)
        self.validate(result)
        return result

    # ------------------------------------------------------------------ #
    # Helpers for subclasses                                               #
    # ------------------------------------------------------------------ #
    def _run_sweep(
        self,
        sweep: "ParameterSweep",
        progress: Callable[[str], None] | None = None,
    ) -> "SweepResult":
        """Run ``sweep`` on the experiment's executor and run cache."""
        return sweep.run(progress=progress, executor=self.executor, cache=self.cache)

    def _scaled_base(self) -> SimulationParameters:
        """The base configuration with the experiment's scale applied."""
        if self.scale == 1.0:
            return self.base_params
        return self.base_params.scaled(self.scale)

    def _new_result(self) -> ExperimentResult:
        """A fresh result pre-filled with the experiment's metadata."""
        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            x_label=self.x_label,
            y_label=self.y_label,
            params=self._scaled_base(),
        )
        if self.scale != 1.0:
            result.notes.append(
                f"run at scale={self.scale:g} of the paper's horizon "
                f"({self._scaled_base().num_transactions:,} transactions) "
                f"with {self.repeats} repeat(s); the paper uses 500,000 "
                f"transactions and 10 repeats"
            )
        return result
