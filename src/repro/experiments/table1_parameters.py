"""Table 1 — the simulation parameters.

Not a simulation at all: this "experiment" renders the default configuration
as the paper's Table 1 and checks that our defaults match the published
values.  It exists so every numbered artefact of the evaluation section has a
corresponding experiment id and pinned shape checks.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..analysis.comparison import ShapeCheck
from ..config import Topology
from .base import Experiment, ExperimentResult

__all__ = ["Table1Parameters", "PAPER_TABLE1"]

#: The values printed in Table 1 of the paper, keyed by our parameter names.
PAPER_TABLE1: dict[str, object] = {
    "num_initial_peers": 500,
    "num_transactions": 500_000,
    "num_score_managers": 6,
    "arrival_rate": 0.01,
    "fraction_uncooperative": 0.25,
    "fraction_naive": 0.3,
    "selective_error_rate": 0.10,
    "topology": Topology.SCALE_FREE,
    "waiting_period": 1000.0,
    "audit_transactions": 20,
    "intro_amount": 0.1,
    "reward_amount": 0.02,
}


class Table1Parameters(Experiment):
    """Render Table 1 and verify our defaults reproduce it."""

    experiment_id = "table1"
    title = "Table 1 — simulation parameters"
    x_label = "parameter"
    y_label = "value"

    def run(self, progress: Callable[[str], None] | None = None) -> ExperimentResult:
        result = self._new_result()
        result.notes.clear()  # scaling note is meaningless for a parameter table
        params = self.base_params
        for name, paper_value in PAPER_TABLE1.items():
            ours = getattr(params, name)
            result.scalars[f"{name} (paper)"] = _numeric(paper_value)
            result.scalars[f"{name} (ours)"] = _numeric(ours)
        result.notes.append(
            "minIntroRep is derived as max(introAmt + 0.05, 2*introAmt) per "
            "SimulationParameters.effective_min_intro_reputation(), keeping the "
            "paper's invariant minIntroRep > introAmt"
        )
        return result

    def checks(self) -> Sequence[ShapeCheck]:
        def defaults_match(result: object) -> tuple[bool, str]:
            params = self.base_params
            mismatches = [
                name
                for name, paper_value in PAPER_TABLE1.items()
                if getattr(params, name) != paper_value
            ]
            if mismatches:
                return False, f"defaults differ from Table 1: {', '.join(mismatches)}"
            return True, "all Table 1 defaults match the paper"

        def invariant_holds(result: object) -> tuple[bool, str]:
            params = self.base_params
            minimum = params.effective_min_intro_reputation()
            ok = minimum >= params.intro_amount
            return ok, f"minIntroRep={minimum:.3f} vs introAmt={params.intro_amount:.3f}"

        return [
            ShapeCheck(
                name="defaults match Table 1",
                predicate=defaults_match,
                paper_claim="Table 1 default values",
            ),
            ShapeCheck(
                name="minIntroRep exceeds introAmt",
                predicate=invariant_holds,
                paper_claim="'By keeping minIntroRep greater than introAmt we also "
                "prevent peer reputation value from going below zero'",
            ),
        ]


def _numeric(value: object) -> float:
    """Coerce a Table 1 value to a float for the scalars dictionary."""
    if isinstance(value, Topology):
        return float(list(Topology).index(value))
    if isinstance(value, bool):
        return float(value)
    return float(value)  # type: ignore[arg-type]
