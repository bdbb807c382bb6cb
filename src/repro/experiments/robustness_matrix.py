"""The scheme × attack robustness matrix.

The paper's comparative claim — reputation lending admits honest newcomers
*while* resisting whitewashing and collusion — is ultimately a statement
about a grid: every reputation scheme crossed with every attack.  This
experiment runs that grid inside the full discrete-event simulation.  Each
cell is one (scheme, adversary) pair; the adversary is a registered
strategy from :mod:`repro.adversary` driven on its deterministic schedule,
and every cell reports two numbers:

* **newcomer success** — the fraction of honest (cooperative) arrivals that
  made it into the community, i.e. whether defending against the attack
  cost the scheme its openness;
* **attacker gain** — the mean reputation of the uncooperative side of the
  community at the end of the run, i.e. what standing the attack actually
  bought (injected attackers and freeriding entrants alike).

As in :class:`~repro.experiments.scheme_comparison.SchemeComparison`, the
paper's scheme runs with its native lending bootstrap while each baseline
runs open admission at its *own* newcomer score, so a cell's outcome is the
scheme's doing, not the harness's.  All cells are independent
:class:`~repro.parallel.specs.RunSpec` batches, so ``--jobs N`` spreads the
grid across cores with bit-identical results.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..analysis.comparison import ShapeCheck
from ..metrics.summary import RunSummary
from ._attack_grid import SchemeAttackGrid
from .base import ExperimentResult

__all__ = ["RobustnessMatrix", "newcomer_success", "attacker_gain"]

#: Minimum cooperative arrivals before a comparative check is meaningful.
_MIN_ARRIVALS = 5.0


def newcomer_success(summary: RunSummary) -> float:
    """Fraction of honest arrivals admitted (NaN when nobody arrived)."""
    if summary.arrivals_cooperative == 0:
        return float("nan")
    return summary.admitted_cooperative / summary.arrivals_cooperative


def attacker_gain(summary: RunSummary) -> float:
    """Mean reputation of the uncooperative side at the end of the run."""
    series = summary.uncooperative_reputation
    if not len(series):
        return float("nan")
    return series.values[-1]


class RobustnessMatrix(SchemeAttackGrid):
    """One cell per (reputation scheme, adversary strategy) pair."""

    experiment_id = "robustness_matrix"
    title = "Robustness matrix — every scheme under every registered attack"
    y_label = "rate / reputation"
    qualitative = "the matrix"

    def run(self, progress: Callable[[str], None] | None = None) -> ExperimentResult:
        result = self._new_result()
        outcome = self._run_grid(result, progress=progress)

        def cell_mean(
            scheme: str, attack: str, getter: Callable[[RunSummary], float]
        ) -> float:
            mean, _ = outcome.mean_metric(self.cell_label(scheme, attack), getter)
            return mean

        for attack in self.attacks:
            result.series[f"{attack}: newcomer success"] = [
                (float(i), cell_mean(scheme, attack, newcomer_success))
                for i, scheme in enumerate(self.schemes)
            ]
            result.series[f"{attack}: attacker gain"] = [
                (float(i), cell_mean(scheme, attack, attacker_gain))
                for i, scheme in enumerate(self.schemes)
            ]
        first = outcome.summaries_at(
            self.cell_label(self.schemes[0], self.attacks[0])
        )[0]
        result.scalars["cooperative arrivals per run"] = float(
            first.arrivals_cooperative
        )
        return result

    # ------------------------------------------------------------------ #
    # Shape checks                                                         #
    # ------------------------------------------------------------------ #
    def _lending_resists(
        self, result: ExperimentResult, attack: str, margin: float = 0.1
    ) -> tuple[bool, str]:
        """Whether rocq's attacker gain undercuts the weakest baseline's."""
        if "rocq" not in self.schemes:
            return True, "lending scheme not part of this matrix"
        if result.scalars.get("cooperative arrivals per run", 0.0) < _MIN_ARRIVALS:
            return True, "too few arrivals at this scale for a comparison"
        row = self._row(result, attack, "attacker gain")
        baselines = {name: value for name, value in row.items() if name != "rocq"}
        if "rocq" not in row or not baselines:
            return True, "matrix row incomplete at this scale"
        weakest_scheme = max(baselines, key=baselines.get)
        weakest = baselines[weakest_scheme]
        resists = row["rocq"] + margin < weakest
        return resists, (
            f"under {attack} the lending scheme concedes {row['rocq']:.2f} "
            f"attacker reputation vs {weakest:.2f} for {weakest_scheme}"
        )

    def checks(self) -> Sequence[ShapeCheck]:
        def lending_stays_open(result: ExperimentResult) -> tuple[bool, str]:
            if "rocq" not in self.schemes:
                return True, "lending scheme not part of this matrix"
            if result.scalars.get("cooperative arrivals per run", 0.0) < _MIN_ARRIVALS:
                return True, "too few arrivals at this scale for a comparison"
            index = float(self.schemes.index("rocq"))
            worst = min(
                value
                for attack in self.attacks
                for x, value in result.series[f"{attack}: newcomer success"]
                if x == index and value == value
            )
            return worst > 0.0, (
                f"lending admits >= {worst:.0%} of honest arrivals under every attack"
            )

        return [
            ShapeCheck(
                name="every cell of the matrix produced both metrics",
                predicate=lambda result: self._complete(result, 2),
                paper_claim="the comparative claim is a full scheme x attack grid",
            ),
            ShapeCheck(
                name="lending keeps admitting honest newcomers under attack",
                predicate=lending_stays_open,
                paper_claim="'newcomers can gradually build up reputation'",
            ),
            ShapeCheck(
                name="lending resists whitewashing where a baseline fails",
                predicate=lambda result: self._lending_resists(
                    result, "whitewash_waves"
                ),
                paper_claim="'without the system being vulnerable to whitewashing'",
            ),
            ShapeCheck(
                name="lending resists collusion where a baseline fails",
                predicate=lambda result: self._lending_resists(
                    result, "collusion_ring"
                ),
                paper_claim="§5: collusion resistance of credibility-weighted "
                "aggregation plus staked introductions",
            ),
        ]
