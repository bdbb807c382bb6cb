"""The scheme × attack grid shared by the robustness matrix and detection eval.

Both experiments run one sweep point per (reputation scheme, adversary
strategy) cell and differ only in what they read off each cell, so the grid
— its cell order, its capped horizon and its sweep — is defined once here,
as :mod:`._lent_sweep` does for Figures 4 and 5.  Each sweep is still named
after its experiment, so each keeps its own seed stream.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..adversary import default_adversary_spec
from ..config import ADVERSARY_STRATEGIES, REPUTATION_SCHEMES
from ..workloads.sweep import ParameterSweep, SweepPoint, SweepResult
from .base import Experiment, ExperimentResult
from .scheme_comparison import (
    MAX_COMPARISON_TRANSACTIONS,
    capped_comparison_scale,
    scheme_overrides,
)

__all__ = ["SchemeAttackGrid"]


class SchemeAttackGrid(Experiment):
    """One sweep point per (reputation scheme, adversary strategy) cell."""

    x_label = "scheme"
    #: What the capped-horizon note calls qualitative.
    qualitative = ""

    def __init__(
        self,
        *args,
        schemes: Sequence[str] = REPUTATION_SCHEMES,
        attacks: Sequence[str] = ADVERSARY_STRATEGIES,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        # Canonical (sorted) cell order: the grid means the same thing in any
        # order, and sorting makes the emitted artifact diff cleanly across
        # runs and registry reorderings.  Cell seeds derive from point labels,
        # so ordering does not perturb any cell's result.
        self.schemes = tuple(sorted(schemes))
        self.attacks = tuple(sorted(attacks))

    def _effective_scale(self) -> float:
        """The experiment's scale, capped at the comparison horizon limit."""
        return capped_comparison_scale(self.scale, self.base_params)

    @staticmethod
    def cell_label(scheme: str, attack: str) -> str:
        return f"{scheme}|{attack}"

    def _points(self, horizon: int) -> list[SweepPoint]:
        points = []
        for index, scheme in enumerate(self.schemes):
            base_overrides = scheme_overrides(self.base_params, scheme)
            for attack in self.attacks:
                overrides = dict(base_overrides)
                overrides["adversary"] = default_adversary_spec(attack, horizon)
                points.append(
                    SweepPoint(
                        label=self.cell_label(scheme, attack),
                        x=float(index),
                        overrides=overrides,
                    )
                )
        return points

    def _run_grid(
        self,
        result: ExperimentResult,
        progress: Callable[[str], None] | None = None,
    ) -> SweepResult:
        """Run every cell, recording the grid's shape on ``result``."""
        effective_scale = self._effective_scale()
        scaled = self.base_params.scaled(effective_scale)
        if effective_scale != self.scale:
            result.params = scaled
            result.notes.clear()
            result.notes.append(
                f"run at scale={effective_scale:g} of the base horizon "
                f"({scaled.num_transactions:,} transactions) with "
                f"{self.repeats} repeat(s)"
            )
            result.notes.append(
                f"horizon capped at {MAX_COMPARISON_TRANSACTIONS:,} transactions "
                f"— {self.qualitative} is qualitative and the grid is "
                f"{len(self.schemes)}x{len(self.attacks)} cells"
            )
        result.x_ticks = {
            float(index): scheme for index, scheme in enumerate(self.schemes)
        }
        result.scalars["schemes"] = float(len(self.schemes))
        result.scalars["attacks"] = float(len(self.attacks))
        result.scalars["cells"] = float(len(self.schemes) * len(self.attacks))
        # Adversary schedules are sized against the horizon that actually
        # runs, so the sweep must not re-scale them: the points already carry
        # final specs, and `scaled()` would shrink them a second time.  Every
        # other field is pre-scaled into the base instead.
        sweep = ParameterSweep(
            name=self.experiment_id,
            base=scaled,
            points=self._points(scaled.num_transactions),
            repeats=self.repeats,
            scale=1.0,
        )
        return self._run_sweep(sweep, progress=progress)

    def _row(
        self, result: ExperimentResult, attack: str, metric: str
    ) -> dict[str, float]:
        """Scheme name → value for one (attack, metric) row, NaNs dropped."""
        series = result.series.get(f"{attack}: {metric}", [])
        return {self.schemes[int(x)]: value for x, value in series if value == value}

    def _complete(self, result: ExperimentResult, metrics: int) -> tuple[bool, str]:
        """Whether every cell produced each of its ``metrics`` values."""
        expected_series = metrics * len(self.attacks)
        lengths = {name: len(points) for name, points in result.series.items()}
        complete = len(lengths) == expected_series and all(
            length == len(self.schemes) for length in lengths.values()
        )
        return complete, (
            f"{len(lengths)} series x {len(self.schemes)} scheme(s), "
            f"expected {expected_series}"
        )
