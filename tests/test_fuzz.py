"""Tests for the seeded scenario fuzzer and its property-based invariants.

The contracts pinned here:

* every registered generator dimension shows up in the unified catalogue;
* scenario generation is deterministic in (seed, index) and always produces
  valid :class:`SimulationParameters` (construction *is* the validation);
* the invariants hold over a batch of >= 25 seeded scenarios;
* the invariant checker actually detects violations when state is corrupted
  (it is a real oracle, not a rubber stamp).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import catalogue
from repro.config import SimulationParameters
from repro.errors import ConfigurationError
from repro.parallel.specs import params_fingerprint
from repro.sim.engine import Simulation
from repro.workloads.fuzz import (
    FuzzConfig,
    available_fuzz_generators,
    check_invariants,
    fuzz_scenario,
    run_fuzz_batch,
    run_fuzz_scenario,
)

#: Small caps keep a >=25-scenario batch fast while spanning the space.
FAST = dict(max_transactions=400, max_initial_peers=20)

#: sha256 over the parameter fingerprints of scenarios 0-255 at seeds 1 and
#: 2026, recorded when the fuzzer drew from numpy's ``default_rng``.
SCENARIO_PIN = "85bd6e5cdc9aa29a3003b65955a696c6fdc1fa5c1df11386da0d1f54aa5dd45c"


class TestGeneratorRegistry:
    def test_expected_dimensions_are_registered(self):
        assert set(available_fuzz_generators()) == {
            "horizon",
            "topology",
            "arrivals",
            "behaviour",
            "bootstrap",
            "scheme",
            "adversary",
        }

    def test_catalogue_exposes_the_generators(self):
        assert catalogue()["fuzz-generators"] == available_fuzz_generators()

    def test_descriptions_are_non_empty(self):
        for name, description in available_fuzz_generators().items():
            assert description, name


class TestScenarioGeneration:
    CONFIG = FuzzConfig(seed=5, count=30, **FAST)

    def test_scenarios_are_valid_and_deterministic(self):
        for index in range(self.CONFIG.count):
            first = fuzz_scenario(self.CONFIG, index)
            second = fuzz_scenario(self.CONFIG, index)
            assert isinstance(first.params, SimulationParameters)
            assert first.params == second.params
            assert first.seed == second.seed

    def test_scenarios_differ_across_indices(self):
        fingerprints = {
            fuzz_scenario(self.CONFIG, index).params for index in range(10)
        }
        assert len(fingerprints) > 1

    def test_seed_changes_the_scenarios(self):
        other = FuzzConfig(seed=6, count=30, **FAST)
        assert fuzz_scenario(self.CONFIG, 0).params != fuzz_scenario(other, 0).params

    def test_seeds_still_name_the_same_scenarios(self):
        digest = hashlib.sha256()
        for seed in (1, 2026):
            config = FuzzConfig(seed=seed)
            for index in range(256):
                fingerprint = params_fingerprint(fuzz_scenario(config, index).params)
                digest.update(fingerprint.encode() + b"\n")
        assert digest.hexdigest() == SCENARIO_PIN

    def test_scheme_pin_applies_to_every_scenario(self):
        pinned = FuzzConfig(seed=5, count=5, scheme="beta", **FAST)
        for index in range(pinned.count):
            assert fuzz_scenario(pinned, index).params.reputation_scheme == "beta"

    @pytest.mark.parametrize(
        "bad",
        [dict(count=0), dict(max_transactions=10), dict(max_initial_peers=2)],
    )
    def test_config_validation(self, bad):
        with pytest.raises(ConfigurationError):
            FuzzConfig(**bad)


class TestInvariants:
    def test_invariants_hold_over_a_seeded_batch(self):
        config = FuzzConfig(seed=1, count=25, **FAST)
        report = run_fuzz_batch(config)
        assert len(report.results) == 25
        assert report.ok, [
            violation.describe()
            for result in report.results
            for violation in result.violations
        ]
        assert report.violation_count == 0

    def test_results_are_reproducible(self):
        config = FuzzConfig(seed=3, count=1, **FAST)
        first = run_fuzz_scenario(fuzz_scenario(config, 0))
        second = run_fuzz_scenario(fuzz_scenario(config, 0))
        assert first.digest == second.digest

    def test_report_serialises(self):
        config = FuzzConfig(seed=3, count=2, **FAST)
        document = run_fuzz_batch(config).to_dict()
        assert document["ok"] is True
        assert len(document["results"]) == 2
        for entry in document["results"]:
            assert entry["digest"]
            assert entry["violations"] == []


class TestInvariantOracle:
    """Corrupt a finished run and verify the checker notices."""

    @pytest.fixture()
    def finished(self):
        scenario = fuzz_scenario(FuzzConfig(seed=2, count=1, **FAST), 0)
        sim = Simulation(scenario.params, seed=scenario.seed)
        summary = sim.run()
        assert check_invariants(sim, summary) == []
        return sim, summary

    def test_detects_broken_lending_conservation(self, finished):
        sim, summary = finished
        sim.lending.stats.total_reputation_lent += 5.0
        violations = check_invariants(sim, summary)
        assert any(v.invariant == "lending_conservation" for v in violations)

    def test_detects_unclamped_scores(self, finished, monkeypatch):
        sim, summary = finished
        # Backends clamp on write, so fake the read path: whatever scheme the
        # scenario drew, an out-of-range score must be flagged.
        monkeypatch.setattr(sim.store, "global_reputation", lambda subject: 1.5)
        violations = check_invariants(sim, summary)
        assert any(v.invariant == "score_clamping" for v in violations)

    def test_detects_horizon_shortfall(self, finished):
        sim, summary = finished
        sim.clock.now -= 1.0
        violations = check_invariants(sim, summary)
        assert any(v.invariant == "horizon" for v in violations)
