"""Figure 3 — final community composition vs proportion of naive introducers.

The paper varies the fraction of cooperative peers that are naive introducers
from 0 to 1 and reports the number of cooperative and uncooperative peers in
the system at the end of the run.  Claims we check:

* the admitted uncooperative count increases with the naive fraction;
* even with *no* naive introducers some uncooperative peers get in, because
  selective introducers err at rate ``errSel`` (about errSel of the
  uncooperative arrivals);
* even when *every* introducer is naive, the admitted uncooperative count
  stays well below the number that tried, because naive introducers bleed
  reputation with every failed audit and eventually fall below
  ``minIntroRep``;
* the cooperative count decreases (mildly) as the naive fraction grows.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..analysis.comparison import ShapeCheck, monotonic
from ..workloads.sweep import ParameterSweep, SweepPoint
from .base import Experiment, ExperimentResult

__all__ = ["Figure3NaiveProportion"]

#: The naive-introducer fractions swept (the paper plots 0 .. 1).
NAIVE_FRACTIONS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


class Figure3NaiveProportion(Experiment):
    """Reproduce Figure 3 (composition vs proportion of naive introducers)."""

    experiment_id = "figure3"
    title = "Figure 3 — peers in system vs proportion of naive introducers"
    x_label = "proportion of naive introducers"
    y_label = "number of peers"

    def __init__(self, *args, naive_fractions: Sequence[float] = NAIVE_FRACTIONS, **kwargs):
        super().__init__(*args, **kwargs)
        self.naive_fractions = tuple(naive_fractions)

    def run(self, progress: Callable[[str], None] | None = None) -> ExperimentResult:
        result = self._new_result()
        sweep = ParameterSweep(
            name=self.experiment_id,
            base=self.base_params,
            points=[
                SweepPoint(
                    label=f"naive-{fraction:g}",
                    x=fraction,
                    overrides={"fraction_naive": fraction},
                )
                for fraction in self.naive_fractions
            ],
            repeats=self.repeats,
            scale=self.scale,
        )
        outcome = self._run_sweep(sweep, progress=progress)
        result.series["Cooperative Peers"] = [
            (x, mean)
            for x, mean, _ in outcome.series(lambda s: float(s.final_cooperative))
        ]
        result.series["Uncooperative Peers"] = [
            (x, mean)
            for x, mean, _ in outcome.series(lambda s: float(s.final_uncooperative))
        ]
        uncoop_arrivals = outcome.series(lambda s: float(s.arrivals_uncooperative))
        total = 0.0
        for _, mean, _ in uncoop_arrivals:
            total += mean
        result.scalars["mean uncooperative arrivals per run"] = total / len(
            uncoop_arrivals
        )
        return result

    # ------------------------------------------------------------------ #
    # Shape checks                                                         #
    # ------------------------------------------------------------------ #
    def checks(self) -> Sequence[ShapeCheck]:
        def uncooperative_increases(result: ExperimentResult) -> tuple[bool, str]:
            points = result.series["Uncooperative Peers"]
            tolerance = max(2.0, 0.1 * max(y for _, y in points))
            return monotonic(points, increasing=True, tolerance=tolerance)

        def selective_error_floor(result: ExperimentResult) -> tuple[bool, str]:
            points = dict(result.series["Uncooperative Peers"])
            at_zero = points.get(0.0)
            if at_zero is None:
                return True, "0.0 not part of the sweep"
            arrivals = result.scalars["mean uncooperative arrivals per run"]
            if arrivals == 0:
                return True, "no uncooperative arrivals"
            fraction = at_zero / arrivals
            err = self.base_params.selective_error_rate
            passed = fraction <= max(3.0 * err, err + 0.1)
            return passed, (
                f"with only selective introducers {fraction:.1%} of uncooperative "
                f"arrivals got in (errSel={err:.0%})"
            )

        def naive_bound(result: ExperimentResult) -> tuple[bool, str]:
            points = dict(result.series["Uncooperative Peers"])
            at_one = points.get(1.0)
            if at_one is None:
                return True, "1.0 not part of the sweep"
            arrivals = result.scalars["mean uncooperative arrivals per run"]
            if arrivals == 0:
                return True, "no uncooperative arrivals"
            fraction = at_one / arrivals
            return fraction < 0.95, (
                f"with only naive introducers {fraction:.1%} of uncooperative "
                f"arrivals got in (the stake loss keeps it below 100%)"
            )

        def cooperative_does_not_grow(result: ExperimentResult) -> tuple[bool, str]:
            points = result.series["Cooperative Peers"]
            first = points[0][1]
            last = points[-1][1]
            passed = last <= first * 1.05
            return passed, f"cooperative count: {first:.0f} at x=0 vs {last:.0f} at x=1"

        return [
            ShapeCheck(
                name="admitted uncooperative peers increase with naive fraction",
                predicate=uncooperative_increases,
                paper_claim="'as the proportion of naive introducers increases ... the "
                "number of uncooperative peers increases'",
            ),
            ShapeCheck(
                name="with only selective introducers ~errSel of freeriders get in",
                predicate=selective_error_floor,
                paper_claim="'Some uncooperative peers enter the system even when all "
                "the peers are selective. This is due to the selective peer error rate'",
            ),
            ShapeCheck(
                name="with only naive introducers admission stays bounded",
                predicate=naive_bound,
                paper_claim="'even when all the peers are naive, the number of "
                "uncooperative peers admitted to the system is less than the total'",
            ),
            ShapeCheck(
                name="cooperative count does not grow with the naive fraction",
                predicate=cooperative_does_not_grow,
                paper_claim="'the number of cooperative peers in the system decreases'",
            ),
        ]
