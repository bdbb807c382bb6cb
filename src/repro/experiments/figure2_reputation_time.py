"""Figure 2 — reputation of cooperative peers over time, per arrival rate.

The paper sweeps the new-peer arrival rate lambda over almost three orders of
magnitude (0.001 … 0.2) and plots the average reputation of cooperative peers
(founders and admitted entrants together) over simulated time.  The claims we
check:

* for low and moderate arrival rates the average stays roughly constant;
* for the highest rates (0.1, 0.2) the system is initially overwhelmed —
  lending drains cooperative reputation — and then recovers to a steady
  state maintained for the rest of the run;
* the reputation of uncooperative peers stays very low throughout (the paper
  does not even plot it), which we record as a scalar.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..analysis.comparison import ShapeCheck, roughly_flat
from ..workloads.sweep import ParameterSweep, SweepPoint
from .base import Experiment, ExperimentResult

__all__ = ["Figure2ReputationOverTime"]

#: The arrival rates plotted in Figure 2.
ARRIVAL_RATES = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2)

#: Rates the paper singles out as "the system is overwhelmed by new entrants".
HIGH_RATES = (0.1, 0.2)


class Figure2ReputationOverTime(Experiment):
    """Reproduce Figure 2 (cooperative reputation vs time per arrival rate)."""

    experiment_id = "figure2"
    title = "Figure 2 — reputation of cooperative peers over time"
    x_label = "time units"
    y_label = "average reputation of cooperative peers"

    def __init__(self, *args, arrival_rates: Sequence[float] = ARRIVAL_RATES, **kwargs):
        super().__init__(*args, **kwargs)
        self.arrival_rates = tuple(arrival_rates)

    def run(self, progress: Callable[[str], None] | None = None) -> ExperimentResult:
        result = self._new_result()
        sweep = ParameterSweep(
            name=self.experiment_id,
            base=self.base_params,
            points=[
                SweepPoint(
                    label=f"rate-{rate:g}", x=rate, overrides={"arrival_rate": rate}
                )
                for rate in self.arrival_rates
            ],
            repeats=self.repeats,
            scale=self.scale,
        )
        outcome = self._run_sweep(sweep, progress=progress)
        for rate in self.arrival_rates:
            label = f"rate-{rate:g}"
            series = outcome.averaged_timeseries(
                label, lambda s: s.cooperative_reputation
            )
            result.series[f"Arrival Rate {rate:g}"] = list(
                zip(series.times, series.values)
            )
            uncoop_rep, _ = outcome.mean_metric(
                label, lambda s: s.uncooperative_reputation.finite().last_value(0.0)
            )
            result.scalars[f"final uncooperative reputation (rate {rate:g})"] = uncoop_rep
        return result

    # ------------------------------------------------------------------ #
    # Shape checks                                                         #
    # ------------------------------------------------------------------ #
    def checks(self) -> Sequence[ShapeCheck]:
        def low_rates_flat(result: ExperimentResult) -> tuple[bool, str]:
            # The paper's claim is about the sustained level, so the check is
            # evaluated on the second half of each curve: at reduced scale the
            # initial transient (founders at 1.0 diluted by entrants that are
            # still converging) would otherwise dominate.
            details = []
            for rate in self.arrival_rates:
                if rate in HIGH_RATES:
                    continue
                label = f"Arrival Rate {rate:g}"
                points = result.series.get(label, [])
                steady_state = points[len(points) // 2 :]
                ok, detail = roughly_flat(steady_state, relative_band=0.2)
                details.append(f"{label}: {detail}")
                if not ok:
                    return False, "; ".join(details)
            return True, "; ".join(details)

        def high_rates_recover(result: ExperimentResult) -> tuple[bool, str]:
            # A recovery needs room to show: the curve must bottom out before
            # the last quarter of the run and end a dip's margin above that
            # low.  A curve that is still sinking at the end does not recover.
            margin = 0.02
            details = []
            passed = True
            for rate in HIGH_RATES:
                if rate not in self.arrival_rates:
                    continue
                label = f"Arrival Rate {rate:g}"
                values = [y for _, y in result.series.get(label, []) if y == y]
                if len(values) < 4:
                    details.append(f"{label}: too few samples")
                    continue
                initial = values[0]
                minimum = min(values)
                low_index = values.index(minimum)
                final = values[-1]
                dipped = minimum < initial - margin
                recovered = (
                    final >= minimum + margin and low_index < 0.75 * len(values)
                )
                details.append(
                    f"{label}: start={initial:.3f} min={minimum:.4f} at sample "
                    f"{low_index + 1} of {len(values)}, end={final:.4f}"
                )
                passed = passed and dipped and recovered
            return passed, "; ".join(details)

        def uncooperative_stay_low(result: ExperimentResult) -> tuple[bool, str]:
            values = [
                value
                for name, value in result.scalars.items()
                if name.startswith("final uncooperative reputation")
            ]
            worst = max(values) if values else 0.0
            return worst < 0.35, f"worst final uncooperative reputation = {worst:.3f}"

        return [
            ShapeCheck(
                name="cooperative reputation roughly constant for low/medium rates",
                predicate=low_rates_flat,
                paper_claim="'the average reputation of cooperative peers remains "
                "more or less constant with respect to time for all values of lambda'",
            ),
            ShapeCheck(
                name="highest rates dip then recover to a steady state",
                predicate=high_rates_recover,
                paper_claim="'the system is overwhelmed by the new entrants ... "
                "Thereafter, peer reputations recover ... This steady state is then "
                "maintained'",
            ),
            ShapeCheck(
                name="uncooperative reputation stays very low",
                predicate=uncooperative_stay_low,
                paper_claim="'We do not plot the reputation of uncooperative peers as "
                "it remains very low for all arrival rates'",
            ),
        ]
