"""Workloads: scenario presets, the scenario registry, and parameter sweeps.

Scenarios are named :class:`~repro.config.SimulationParameters` presets (the
paper's Table 1 operating point, laptop-scale variants of it, the baseline
bootstrap modes, stress configurations).  The registry
(:mod:`repro.workloads.registry`) maps stable names to scenario factories so
orchestration layers — the experiment runner's ``--scenario`` flag, CI smoke
jobs — resolve presets by name.  Sweeps run a simulation repeatedly while
varying one parameter, averaging over independent repeats — this is the
building block every figure-reproducing experiment uses.  The scenario
fuzzer (:mod:`repro.workloads.fuzz`) is the registry's complement: seeded,
random-but-valid operating points with property-based invariant checks.

The sweep names are imported on first access (PEP 562): :mod:`.sweep` runs
through the executors and the run cache of :mod:`repro.parallel`, which a
process that only runs simulations never calls.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_attributes
from .fuzz import (
    FuzzConfig,
    FuzzReport,
    FuzzResult,
    FuzzScenario,
    InvariantViolation,
    available_fuzz_generators,
    check_invariants,
    fuzz_scenario,
    register_fuzz_generator,
    run_fuzz_batch,
    run_fuzz_scenario,
)
from .registry import available_scenarios, get_scenario, register_scenario
from .scenarios import (
    fixed_credit_baseline,
    high_arrival_stress,
    laptop_scale,
    open_admission_baseline,
    paper_default,
    random_topology_variant,
    tiny_test,
    whitewash_stress,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sweep import ParameterSweep, SweepPoint, SweepResult, aggregate_mean

#: Name -> the submodule that defines it, imported on first access.
_LAZY = {
    "ParameterSweep": ".sweep",
    "SweepPoint": ".sweep",
    "SweepResult": ".sweep",
    "aggregate_mean": ".sweep",
}

__all__ = [
    "paper_default",
    "laptop_scale",
    "tiny_test",
    "random_topology_variant",
    "open_admission_baseline",
    "fixed_credit_baseline",
    "high_arrival_stress",
    "whitewash_stress",
    "register_scenario",
    "get_scenario",
    "available_scenarios",
    "ParameterSweep",
    "SweepPoint",
    "SweepResult",
    "aggregate_mean",
    "FuzzConfig",
    "FuzzScenario",
    "FuzzResult",
    "FuzzReport",
    "InvariantViolation",
    "register_fuzz_generator",
    "available_fuzz_generators",
    "fuzz_scenario",
    "check_invariants",
    "run_fuzz_scenario",
    "run_fuzz_batch",
]

__getattr__ = lazy_attributes(__name__, _LAZY)
