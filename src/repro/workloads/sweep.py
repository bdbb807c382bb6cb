"""Parameter sweeps with repeat-averaging.

A :class:`ParameterSweep` runs the simulator at a series of points (each a
set of parameter overrides applied to a base configuration), repeating every
point ``repeats`` times with independent seeds, and returns a
:class:`SweepResult` that can aggregate any :class:`~repro.metrics.summary.RunSummary`
attribute across the repeats.

Rather than looping over runs inline, the sweep describes every (point,
repeat) pair as a :class:`~repro.parallel.specs.RunSpec` and submits the
batch to an executor from :mod:`repro.parallel`, so the same sweep can run
inline or across worker processes — with bit-identical results, because
each spec carries its own deterministically derived seed.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..config import SimulationParameters
from ..metrics.summary import RunSummary
from ..metrics.timeseries import TimeSeries
from ..parallel.cache import RunCache
from ..parallel.executor import Executor, run_specs
from ..parallel.specs import RunSpec
from ..rng import derive_seed

__all__ = ["SweepPoint", "SweepResult", "ParameterSweep", "aggregate_mean", "average_series"]


def aggregate_mean(values: Sequence[float]) -> tuple[float, float]:
    """Return (mean, sample standard deviation) of ``values``.

    The standard deviation is 0 for a single value, and NaN for no values or
    for several values that are not all finite (``statistics.stdev`` raises
    on those rather than answering NaN).
    """
    cleaned = [float(v) for v in values]
    if not cleaned:
        return float("nan"), float("nan")
    mean = statistics.fmean(cleaned)
    if len(cleaned) == 1:
        return mean, 0.0
    if not all(math.isfinite(v) for v in cleaned):
        return mean, float("nan")
    return mean, statistics.stdev(cleaned)


def average_series(series_list: Sequence[TimeSeries], name: str = "") -> TimeSeries:
    """Average several time series element-wise (truncated to the shortest).

    The experiment harness samples every run at the same interval, so samples
    align by index; when repeats produced different lengths (e.g. a run ended
    mid-interval) the extra samples are dropped.
    """
    averaged = TimeSeries(name=name)
    non_empty = [series for series in series_list if len(series)]
    if not non_empty:
        return averaged
    length = min(len(series) for series in non_empty)
    for index in range(length):
        time = non_empty[0].times[index]
        values = [series.values[index] for series in non_empty]
        finite = [v for v in values if v == v]  # drop NaN
        value = sum(finite) / len(finite) if finite else float("nan")
        averaged.append(time, value)
    return averaged


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: a label, an x value and parameter overrides."""

    label: str
    x: float
    overrides: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class SweepResult:
    """All runs of a sweep, grouped by point."""

    name: str
    points: list[SweepPoint]
    summaries: dict[str, list[RunSummary]]

    def summaries_at(self, label: str) -> list[RunSummary]:
        """The repeat summaries collected at the point called ``label``."""
        return self.summaries[label]

    def mean_metric(
        self, label: str, getter: Callable[[RunSummary], float]
    ) -> tuple[float, float]:
        """Mean and standard deviation of ``getter`` over the point's repeats."""
        return aggregate_mean([getter(s) for s in self.summaries_at(label)])

    def series(
        self, getter: Callable[[RunSummary], float]
    ) -> list[tuple[float, float, float]]:
        """Return [(x, mean, std), ...] across the sweep, in point order."""
        rows = []
        for point in self.points:
            mean, std = self.mean_metric(point.label, getter)
            rows.append((point.x, mean, std))
        return rows

    def averaged_timeseries(
        self, label: str, getter: Callable[[RunSummary], TimeSeries]
    ) -> TimeSeries:
        """Element-wise average of a time series across the point's repeats."""
        return average_series(
            [getter(s) for s in self.summaries_at(label)], name=label
        )


@dataclass
class ParameterSweep:
    """Runs the simulator over a list of parameter points.

    Parameters
    ----------
    name:
        Identifier used in seed derivation and result files.
    base:
        Base configuration every point starts from.
    points:
        The sweep points (label, x value, overrides).
    repeats:
        Independent repetitions per point; ``None`` uses ``base.repeats``.
    scale:
        Horizon scaling applied to every point (see
        :meth:`~repro.config.SimulationParameters.scaled`).
    """

    name: str
    base: SimulationParameters
    points: list[SweepPoint]
    repeats: int | None = None
    scale: float = 1.0

    def params_for(self, point: SweepPoint) -> SimulationParameters:
        """The fully resolved parameters used at ``point``."""
        params = self.base.with_overrides(**dict(point.overrides))
        if self.scale != 1.0:
            params = params.scaled(self.scale)
        return params

    def build_specs(self) -> list[RunSpec]:
        """One :class:`RunSpec` per (point, repeat), in deterministic order.

        The seed of each spec is derived from (master seed, sweep name, point
        label, repeat index) — the exact derivation the serial harness always
        used — so executing the specs on any executor reproduces the serial
        results bit for bit.
        """
        repeats = self.repeats if self.repeats is not None else self.base.repeats
        specs: list[RunSpec] = []
        for point in self.points:
            params = self.params_for(point)
            for repeat in range(repeats):
                seed = derive_seed(self.base.seed, self.name, point.label, repeat)
                specs.append(
                    RunSpec(
                        params=params,
                        seed=seed,
                        sweep=self.name,
                        label=point.label,
                        repeat=repeat,
                        total_repeats=repeats,
                    )
                )
        return specs

    def run(
        self,
        progress: Callable[[str], None] | None = None,
        executor: Executor | None = None,
        cache: RunCache | None = None,
    ) -> SweepResult:
        """Execute the sweep and return its result.

        ``progress`` (if given) receives a short human-readable message for
        each individual simulation run; the experiment CLI uses it to show
        what is happening during long sweeps.  ``executor`` runs the specs
        (``None`` runs them inline) and ``cache`` skips
        (params, seed) pairs that were already computed.
        """
        specs = self.build_specs()
        outcomes = run_specs(specs, executor=executor, cache=cache, progress=progress)
        summaries: dict[str, list[RunSummary]] = {
            point.label: [] for point in self.points
        }
        for spec, summary in zip(specs, outcomes):
            summaries[spec.label].append(summary)
        return SweepResult(name=self.name, points=list(self.points), summaries=summaries)
