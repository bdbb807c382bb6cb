"""Tests for repro.config (Table 1 parameters and validation)."""

from __future__ import annotations

import json

import pytest

from repro.config import (
    PAPER_DEFAULTS,
    AdversarySpec,
    BootstrapMode,
    SimulationParameters,
    Topology,
)
from repro.errors import ConfigurationError


class TestTable1Defaults:
    def test_defaults_match_table1(self):
        params = SimulationParameters()
        assert params.num_initial_peers == 500
        assert params.num_transactions == 500_000
        assert params.num_score_managers == 6
        assert params.arrival_rate == pytest.approx(0.01)
        assert params.fraction_uncooperative == pytest.approx(0.25)
        assert params.fraction_naive == pytest.approx(0.3)
        assert params.selective_error_rate == pytest.approx(0.10)
        assert params.topology == Topology.SCALE_FREE
        assert params.waiting_period == pytest.approx(1000.0)
        assert params.audit_transactions == 20
        assert params.intro_amount == pytest.approx(0.1)
        assert params.reward_amount == pytest.approx(0.02)

    def test_paper_defaults_constant_is_default_constructed(self):
        assert PAPER_DEFAULTS == SimulationParameters()

    def test_default_bootstrap_mode_is_lending(self):
        assert SimulationParameters().bootstrap_mode == BootstrapMode.LENDING


class TestDerivedQuantities:
    def test_expected_arrivals(self):
        params = SimulationParameters(arrival_rate=0.01, num_transactions=500_000)
        assert params.expected_arrivals() == pytest.approx(5000.0)

    def test_min_intro_reputation_default_rule(self):
        params = SimulationParameters(intro_amount=0.1)
        assert params.effective_min_intro_reputation() == pytest.approx(0.2)
        params = SimulationParameters(intro_amount=0.02)
        assert params.effective_min_intro_reputation() == pytest.approx(0.07)

    def test_min_intro_reputation_explicit_override(self):
        params = SimulationParameters(intro_amount=0.1, min_intro_reputation=0.5)
        assert params.effective_min_intro_reputation() == pytest.approx(0.5)

    def test_min_intro_reputation_always_at_least_intro_amount(self):
        for amount in (0.05, 0.1, 0.25, 0.45, 0.9):
            params = SimulationParameters(intro_amount=amount)
            assert params.effective_min_intro_reputation() >= amount


class TestValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_initial_peers", 0),
            ("num_transactions", -1),
            ("num_score_managers", 0),
            ("arrival_rate", -0.1),
            ("fraction_uncooperative", 1.5),
            ("fraction_naive", -0.2),
            ("selective_error_rate", 2.0),
            ("intro_amount", 0.0),
            ("intro_amount", 1.5),
            ("reward_amount", -0.1),
            ("waiting_period", -1.0),
            ("audit_transactions", 0),
            ("sample_interval", 0.0),
            ("repeats", 0),
            ("scale_free_attachment", 0),
        ],
    )
    def test_out_of_range_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            SimulationParameters(**{field: value})

    def test_min_intro_below_intro_amount_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationParameters(intro_amount=0.3, min_intro_reputation=0.1)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationParameters(topology="hypercube")

    def test_unknown_bootstrap_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationParameters(bootstrap_mode="anarchy")


class TestParsingAndOverrides:
    @pytest.mark.parametrize(
        "alias, expected",
        [
            ("random", Topology.RANDOM),
            ("uniform", Topology.RANDOM),
            ("Powerlaw", Topology.SCALE_FREE),
            ("scale-free", Topology.SCALE_FREE),
            ("SCALE_FREE", Topology.SCALE_FREE),
        ],
    )
    def test_topology_aliases(self, alias, expected):
        assert Topology.parse(alias) == expected

    def test_bootstrap_mode_parse_accepts_enum_and_string(self):
        assert BootstrapMode.parse(BootstrapMode.OPEN) == BootstrapMode.OPEN
        assert BootstrapMode.parse("fixed-credit") == BootstrapMode.FIXED_CREDIT

    def test_with_overrides_returns_new_validated_instance(self):
        params = SimulationParameters()
        modified = params.with_overrides(arrival_rate=0.05)
        assert modified.arrival_rate == pytest.approx(0.05)
        assert params.arrival_rate == pytest.approx(0.01)
        with pytest.raises(ConfigurationError):
            params.with_overrides(arrival_rate=-1.0)

    def test_scaled_shrinks_horizon_but_not_rates(self):
        params = SimulationParameters()
        scaled = params.scaled(0.1)
        assert scaled.num_transactions == 50_000
        assert scaled.sample_interval == pytest.approx(500.0)
        assert scaled.arrival_rate == params.arrival_rate
        assert scaled.num_initial_peers == params.num_initial_peers

    def test_scaled_rejects_non_positive_factor(self):
        with pytest.raises(ConfigurationError):
            SimulationParameters().scaled(0.0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_scaled_rejects_non_finite_factor(self, factor):
        with pytest.raises(ConfigurationError, match="scale"):
            SimulationParameters().scaled(factor)


class TestSerialisation:
    def test_round_trip_via_dict(self):
        params = SimulationParameters(
            arrival_rate=0.05, topology="random", bootstrap_mode="open"
        )
        rebuilt = SimulationParameters.from_dict(params.to_dict())
        assert rebuilt == params

    def test_round_trip_via_json(self):
        params = SimulationParameters(intro_amount=0.25, reward_amount=0.05)
        rebuilt = SimulationParameters.from_dict(json.loads(params.to_json()))
        assert rebuilt == params

    def test_from_dict_ignores_unknown_keys(self):
        data = SimulationParameters().to_dict()
        data["not_a_real_parameter"] = 42
        rebuilt = SimulationParameters.from_dict(data)
        assert rebuilt == SimulationParameters()

    def test_to_dict_uses_plain_enum_values(self):
        data = SimulationParameters().to_dict()
        assert data["topology"] == "scale_free"
        assert data["bootstrap_mode"] == "lending"

    def test_adversary_defaults_to_none_and_serialises_as_null(self):
        params = SimulationParameters()
        assert params.adversary is None
        assert params.to_dict()["adversary"] is None
        assert SimulationParameters.from_dict(params.to_dict()) == params

    def test_adversary_accepts_a_bare_strategy_name(self):
        params = SimulationParameters(adversary="slander")
        assert isinstance(params.adversary, AdversarySpec)
        assert params.adversary.name == "slander"

    def test_adversary_round_trips_via_dict(self):
        params = SimulationParameters(
            adversary=AdversarySpec(
                name="whitewash_waves", count=2, options={"burn_threshold": 0.25}
            )
        )
        data = params.to_dict()
        assert data["adversary"]["name"] == "whitewash_waves"
        assert data["adversary"]["options"] == {"burn_threshold": 0.25}
        assert SimulationParameters.from_dict(data) == params

    def test_invalid_adversary_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            SimulationParameters(adversary="route_hijack")
        with pytest.raises(ConfigurationError):
            SimulationParameters(
                adversary=AdversarySpec(name="slander", count=0)
            )
