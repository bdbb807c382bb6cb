"""Shared configuration for the benchmark suite.

Every figure/table of the paper has one benchmark module.  Because a full
paper-scale run (500,000 transactions, 10 repeats per sweep point) takes
hours in pure Python, the benchmarks default to a scaled-down configuration
that preserves the qualitative shapes; the scale is controlled by environment
variables so a full-scale reproduction is one command away:

``REPRO_BENCH_SCALE``
    Fraction of the paper's 500k-transaction horizon (default ``0.04``,
    i.e. 20,000 transactions per run).
``REPRO_BENCH_REPEATS``
    Independent repetitions per sweep point (default ``1``; the paper uses 10).
``REPRO_BENCH_SEED``
    Master seed (default ``1``).

Each benchmark prints the regenerated rows/series (visible with ``pytest -s``).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import make_experiment
from repro.experiments.base import Experiment, ExperimentResult


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, default))
    except ValueError:
        return default


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


BENCH_SCALE = _env_float("REPRO_BENCH_SCALE", 0.04)
BENCH_REPEATS = _env_int("REPRO_BENCH_REPEATS", 1)
BENCH_SEED = _env_int("REPRO_BENCH_SEED", 1)


@pytest.fixture(scope="session")
def bench_scale() -> float:
    """Horizon scale used by every experiment benchmark."""
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_repeats() -> int:
    """Repeats per sweep point used by every experiment benchmark."""
    return BENCH_REPEATS


@pytest.fixture(scope="session")
def bench_seed() -> int:
    """Master seed used by every experiment benchmark."""
    return BENCH_SEED


@pytest.fixture
def run_experiment(bench_scale, bench_repeats, bench_seed):
    """Factory fixture: build, run, validate and print an experiment."""

    def _run(experiment_id: str, benchmark, **experiment_kwargs) -> ExperimentResult:
        def _execute() -> ExperimentResult:
            experiment: Experiment = make_experiment(
                experiment_id,
                scale=bench_scale,
                repeats=bench_repeats,
                seed=bench_seed,
            )
            for key, value in experiment_kwargs.items():
                setattr(experiment, key, value)
            return experiment.run_and_validate()

        result = benchmark.pedantic(_execute, rounds=1, iterations=1)
        print()
        print(result.render_text())
        return result

    return _run


def assert_mostly_passing(result: ExperimentResult, minimum_fraction: float = 0.5) -> None:
    """Benchmarks assert the majority of shape checks hold at bench scale.

    Individual checks can be noisy at a 1-repeat, 4 %-scale run; the full
    picture (and the strict expectations) lives in the test suite and in
    full-scale runs.  A benchmark still fails when most checks break, which
    catches real regressions of the mechanism.
    """
    if not result.checks:
        return
    passed = sum(1 for check in result.checks if check.passed)
    fraction = passed / len(result.checks)
    detail = "; ".join(str(check) for check in result.checks if not check.passed)
    assert fraction >= minimum_fraction, (
        f"only {passed}/{len(result.checks)} shape checks passed: {detail}"
    )
