"""Tests for the pluggable adversary subsystem.

Covers the spec (validation, serialisation, fingerprint participation,
scaling), the strategy registry (config/registry sync, knob validation),
each built-in strategy's observable effects inside the engine, the attack
scenario presets, and — critically — a golden-digest regression proving the
default ``adversary=None`` path is byte-identical to the seed engine.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.adversary import (
    adversary_knobs,
    available_adversaries,
    default_adversary_spec,
    make_adversary,
)
from repro.config import (
    ADVERSARY_STRATEGIES,
    AdversarySpec,
    ConfigurationError,
    SimulationParameters,
)
from repro.parallel.specs import params_fingerprint
from repro.peers.peer import PeerStatus
from repro.sim.engine import Simulation, run_simulation
from repro.workloads.registry import available_scenarios, get_scenario
from repro.workloads.scenarios import paper_default, tiny_test

TINY = tiny_test(seed=5)


def tiny_attack(name: str, **spec_overrides) -> SimulationParameters:
    defaults = dict(name=name, count=3, start_time=300.0, interval=300.0)
    defaults.update(spec_overrides)
    return TINY.with_overrides(adversary=AdversarySpec(**defaults))


class TestAdversarySpec:
    def test_config_and_registry_agree_on_strategy_names(self):
        assert set(available_adversaries()) == set(ADVERSARY_STRATEGIES)

    def test_every_strategy_has_a_description(self):
        for name, description in available_adversaries().items():
            assert description, f"{name} needs a description"

    def test_names_are_normalised_and_aliased(self):
        assert AdversarySpec(name="Whitewashing").name == "whitewash_waves"
        assert AdversarySpec(name="Sybil").name == "sybil_swarm"
        assert AdversarySpec(name="collusion-ring").name == "collusion_ring"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown adversary"):
            AdversarySpec(name="fifty_one_percent")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"count": 0},
            {"start_time": -1.0},
            {"interval": 0.0},
            {"options": (("", 1.0),)},
            {"options": (("waves", 1.0), ("waves", 2.0))},
        ],
    )
    def test_invalid_fields_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            AdversarySpec(name="sybil_swarm", **overrides)

    def test_options_accept_mappings_and_canonicalise(self):
        spec = AdversarySpec(
            name="sybil_swarm", options={"waves": 2, "service_quality": 0.1}
        )
        assert spec.options == (("service_quality", 0.1), ("waves", 2.0))
        assert spec.option("waves", 99.0) == 2.0
        assert spec.option("missing", 7.0) == 7.0

    def test_with_options_merges(self):
        spec = AdversarySpec(name="sybil_swarm", options={"waves": 2})
        updated = spec.with_options(waves=5, service_quality=0.2)
        assert updated.option("waves", 0.0) == 5.0
        assert updated.option("service_quality", 0.0) == 0.2
        assert spec.option("waves", 0.0) == 2.0  # original untouched

    def test_parse_accepts_name_mapping_and_none(self):
        assert AdversarySpec.parse(None) is None
        assert AdversarySpec.parse("slander").name == "slander"
        spec = AdversarySpec(name="churn_storm", count=7)
        assert AdversarySpec.parse(spec) is spec
        rebuilt = AdversarySpec.parse(spec.to_dict())
        assert rebuilt == spec
        with pytest.raises(ConfigurationError, match="cannot interpret"):
            AdversarySpec.parse(3.14)

    def test_parse_rejects_unknown_mapping_fields(self):
        """A knob at the top level must not silently weaken the attack."""
        with pytest.raises(ConfigurationError, match="burn_threshold"):
            AdversarySpec.parse(
                {"name": "whitewash_waves", "burn_threshold": 0.2}
            )

    def test_non_numeric_option_values_raise_configuration_error(self):
        with pytest.raises(ConfigurationError, match="numeric"):
            AdversarySpec(name="collusion_ring", options={"oscillate": "off"})

    def test_spec_round_trips_through_parameter_json(self):
        params = tiny_attack("whitewash_waves", options={"burn_threshold": 0.2})
        restored = SimulationParameters.from_dict(json.loads(params.to_json()))
        assert restored.adversary == params.adversary
        assert restored == params

    def test_parameters_remain_hashable_with_adversary(self):
        assert isinstance(hash(tiny_attack("sybil_swarm")), int)

    def test_adversary_participates_in_the_cache_fingerprint(self):
        baseline = TINY
        attacked = tiny_attack("sybil_swarm")
        other_attack = tiny_attack("slander")
        tweaked = tiny_attack("sybil_swarm", options={"waves": 9})
        fingerprints = {
            params_fingerprint(p)
            for p in (baseline, attacked, other_attack, tweaked)
        }
        assert len(fingerprints) == 4

    def test_scaled_rescales_the_attack_schedule(self):
        params = paper_default().with_overrides(
            adversary=AdversarySpec(
                name="churn_storm", start_time=50_000.0, interval=10_000.0
            )
        )
        scaled = params.scaled(0.01)
        assert scaled.adversary.start_time == pytest.approx(500.0)
        assert scaled.adversary.interval == pytest.approx(100.0)
        assert scaled.adversary.name == "churn_storm"

    def test_default_spec_sizes_the_schedule_to_the_horizon(self):
        spec = default_adversary_spec("slander", 4_000)
        assert spec.name == "slander"
        assert spec.start_time == spec.interval == pytest.approx(500.0)


class TestRegistry:
    @pytest.mark.parametrize("name", ADVERSARY_STRATEGIES)
    def test_every_strategy_builds(self, name):
        strategy = make_adversary(AdversarySpec(name=name))
        assert strategy.spec.name == name
        assert strategy.attacker_ids == []

    def test_unknown_knobs_rejected_at_build_time(self):
        spec = AdversarySpec(name="slander", options={"stealth": 1.0})
        with pytest.raises(ConfigurationError, match="stealth"):
            make_adversary(spec)

    def test_declared_knobs_are_accepted(self):
        for name in ADVERSARY_STRATEGIES:
            knobs = adversary_knobs(name)
            assert knobs, f"{name} should declare its knobs"
            spec = AdversarySpec(
                name=name, options={knobs[0]: 0.5}
            )
            make_adversary(spec)  # must not raise


class TestGoldenDigest:
    def test_no_adversary_path_is_byte_identical_to_the_seed_engine(self):
        """The adversary hooks must not perturb the default path at all.

        Same digest as ``test_reputation_backend.TestDefaultPathDeterminism``:
        captured from the pre-refactor seed engine at the Table 1 operating
        point, 2,000-transaction horizon.  ``params`` (which legitimately
        gained the ``adversary`` field) and wall-clock time are excluded.
        """
        params = paper_default(seed=1).scaled(0.004)
        assert params.adversary is None
        summary = run_simulation(params)
        document = summary.to_dict()
        document.pop("elapsed_seconds")
        document.pop("params")
        digest = hashlib.sha256(
            json.dumps(document, sort_keys=True).encode("utf-8")
        ).hexdigest()
        assert digest == (
            "c88bbfe213e26fe449ad56b8d12a353e599fdc5194aaceadd1322142d7ffc10c"
        )

    def test_no_adversary_means_no_adversary_machinery(self):
        simulation = Simulation(TINY)
        simulation.setup()
        assert simulation.adversary is None
        assert "adversary" not in simulation.streams.names()


class TestStrategiesInsideTheEngine:
    def test_sybil_swarm_floods_the_admission_pipeline(self):
        params = tiny_attack("sybil_swarm", options={"waves": 2})
        simulation = Simulation(params)
        summary = simulation.run()
        swarm = simulation.adversary
        assert swarm.waves_sent == 2
        assert len(swarm.attacker_ids) == 2 * 3
        # Sybils arrive through the front door: they are counted as arrivals
        # and must face the admission decision like everyone else.
        assert summary.arrivals_uncooperative >= 6

    def test_sybil_swarm_respects_the_wave_budget(self):
        params = tiny_attack(
            "sybil_swarm", start_time=100.0, interval=100.0, options={"waves": 1}
        )
        simulation = Simulation(params)
        simulation.run()
        assert simulation.adversary.waves_sent == 1

    def test_whitewash_waves_burn_and_reenter(self):
        params = tiny_attack(
            "whitewash_waves",
            count=2,
            start_time=1_000.0,
            interval=250.0,
        )
        simulation = Simulation(params)
        simulation.run()
        rebirths = simulation.adversary.rebirths
        assert rebirths
        for rebirth in rebirths:
            assert rebirth.fresh != rebirth.burned
            assert rebirth.identities_used >= 2
        # Identity counters increase monotonically along each chain.
        chained = [r for r in rebirths if r.identities_used > 2]
        for rebirth in chained:
            previous = next(r for r in rebirths if r.fresh == rebirth.burned)
            assert rebirth.identities_used == previous.identities_used + 1

    def test_departed_peers_keep_no_opinions(self):
        params = tiny_attack(
            "whitewash_waves", count=2, start_time=1_000.0, interval=250.0
        )
        simulation = Simulation(params)
        simulation.run()
        departed = [
            peer
            for peer in simulation.population
            if peer.status == PeerStatus.DEPARTED
        ]
        assert departed, "the whitewashers' burned identities must depart"
        assert all(len(peer.opinions) == 0 for peer in departed)

    def test_churn_storm_departs_and_joins_in_bursts(self):
        params = tiny_attack("churn_storm", count=4)
        simulation = Simulation(params)
        summary = simulation.run()
        storm = simulation.adversary
        assert storm.joins_injected > 0
        # Departure bursts match the join bursts (duplicate picks redraw),
        # so the storm churns rather than net-growing the community.
        assert storm.departures_requested == storm.joins_injected
        assert "adversary" in simulation.streams.names()
        # The overlay stayed consistent under the storm: every active peer is
        # still on the ring, and the run completed with a live community.
        for peer in simulation.population.active_peers():
            assert peer.peer_id in simulation.ring
        assert summary.final_total > 0

    def test_slander_draws_honest_reputations_down(self):
        clean = run_simulation(TINY)
        slandered_sim = Simulation(
            tiny_attack("slander", count=6, options={"initial_reputation": 1.0})
        )
        slandered = slandered_sim.run()
        assert (
            slandered.mean_cooperative_reputation
            < clean.mean_cooperative_reputation
        )

    def test_strategies_are_deterministic_per_seed(self):
        params = tiny_attack("churn_storm")
        first = run_simulation(params, seed=3).to_dict()
        second = run_simulation(params, seed=3).to_dict()
        first.pop("elapsed_seconds")
        second.pop("elapsed_seconds")
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )


class TestAttackScenarioPresets:
    def test_one_preset_per_registered_strategy(self):
        catalogue = available_scenarios()
        for name in ADVERSARY_STRATEGIES:
            preset = f"{name}_attack"
            assert preset in catalogue
            assert "adversary preset" in catalogue[preset]

    @pytest.mark.parametrize("name", ADVERSARY_STRATEGIES)
    def test_presets_carry_a_matching_spec(self, name):
        params = get_scenario(f"{name}_attack", seed=17)
        assert params.adversary is not None
        assert params.adversary.name == name
        assert params.seed == 17
        # The schedule is sized to the horizon, so scaling the preset keeps
        # the attack's shape.
        assert params.adversary.interval == pytest.approx(
            params.num_transactions / 8.0
        )
