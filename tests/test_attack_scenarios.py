"""Attack-scenario tests: collusion and whitewashing against the mechanism.

These exercise the behaviours the paper's discussion worries about — a
colluding ring inflating each other's reputations, and a freerider
discarding its identity to re-enter — inside the full simulation engine.
Since the adversary subsystem landed, the attacks are configured through
``SimulationParameters.adversary`` and the strategy registry in
:mod:`repro.adversary` instead of hand-rolled ``add_member`` choreography;
the first tests prove the registry strategies reproduce the historical
hand-rolled setups **bit for bit**, and the rest assert the same
scheme-by-scheme outcomes the paper's taxonomy predicts.
"""

from __future__ import annotations

import json

import pytest

from repro.config import AdversarySpec, SimulationParameters
from repro.core.policies import NaivePolicy
from repro.peers.behavior import (
    ColluderBehavior,
    FreeriderBehavior,
    SlandererBehavior,
)
from repro.sim.engine import Simulation
from repro.workloads.registry import get_scenario

PARAMS = SimulationParameters(
    num_initial_peers=60,
    num_transactions=4_000,
    arrival_rate=0.0,
    sample_interval=1_000.0,
    audit_transactions=10,
    seed=31,
)

#: A collusion spec matching the historical hand-rolled ring exactly: one
#: freeriding accomplice at 0.5, three always-praising colluders at 1.0, and
#: no service oscillation (the hand-rolled ring never oscillated).
STEADY_RING = AdversarySpec(
    name="collusion_ring",
    count=4,
    start_time=1_000.0,
    interval=1_000.0,
    options={"oscillate": 0.0},
)


def canonical(summary) -> str:
    """Comparable form of a RunSummary: parameters and wall clock excluded.

    ``params`` legitimately differ between the two arms (one carries the
    adversary spec), and ``elapsed_seconds`` is wall-clock time; every
    simulated quantity must match exactly.  Ground-truth detection labels
    (``adversary_identities``/``detection``) exist only on the registry
    arm for the same reason ``params`` differ — labelling is gated on the
    spec — and they are derived *from* the simulated state rather than
    part of it, so they are excluded too (``summary_digest`` strips them
    for the same reason).
    """
    document = summary.to_dict()
    document.pop("elapsed_seconds")
    document.pop("params")
    document.pop("adversary_identities", None)
    document.pop("detection", None)
    return json.dumps(document, sort_keys=True)


class TestRegistryReproducesHandRolledAttacks:
    """The subsystem must replay the historical inline setups bit for bit."""

    def test_collusion_ring_matches_hand_rolled_setup(self):
        hand_rolled = Simulation(PARAMS, seed=100)
        hand_rolled.setup()
        accomplice = hand_rolled.add_member(
            FreeriderBehavior(), initial_reputation=0.5
        )
        ring_ids = {accomplice.peer_id}
        colluders = []
        for _ in range(3):
            colluder = hand_rolled.add_member(
                ColluderBehavior(ring=set(ring_ids)),
                introducer_policy=NaivePolicy(),
                initial_reputation=1.0,
            )
            ring_ids.add(colluder.peer_id)
            colluders.append(colluder)
        for colluder in colluders:
            colluder.behavior.ring = frozenset(ring_ids)

        registry = Simulation(
            PARAMS.with_overrides(adversary=STEADY_RING), seed=100
        )
        assert canonical(hand_rolled.run()) == canonical(registry.run())

    def test_slander_matches_hand_rolled_setup(self):
        hand_rolled = Simulation(PARAMS, seed=7)
        hand_rolled.setup()
        for _ in range(3):
            hand_rolled.add_member(
                SlandererBehavior(service_quality=0.95), initial_reputation=1.0
            )

        spec = AdversarySpec(
            name="slander", count=3, start_time=1_000.0, interval=1_000.0
        )
        registry = Simulation(PARAMS.with_overrides(adversary=spec), seed=7)
        assert canonical(hand_rolled.run()) == canonical(registry.run())


def _collusion_sim(scheme_params: SimulationParameters, seed: int, ring_size: int):
    """A run with a collusion ring of ``ring_size`` (1 = lone accomplice)."""
    spec = AdversarySpec(
        name="collusion_ring",
        count=ring_size,
        start_time=1_000.0,
        interval=1_000.0,
        options={"oscillate": 0.0},
    )
    simulation = Simulation(scheme_params.with_overrides(adversary=spec), seed=seed)
    simulation.setup()
    simulation.step(4_000)
    return simulation


class TestCollusionRing:
    def test_colluders_inflate_ring_member_reputation(self):
        """A colluder's false praise props up its freeriding accomplice."""
        # Control: a lone freerider (a ring of one) in an honest community.
        control = _collusion_sim(PARAMS, seed=100, ring_size=1)
        control_reputation = control.store.global_reputation(
            control.adversary.accomplice_id
        )

        # Attack: the same freerider backed by three colluders.
        attacked = _collusion_sim(PARAMS, seed=100, ring_size=4)
        attacked_reputation = attacked.store.global_reputation(
            attacked.adversary.accomplice_id
        )

        # Collusion measurably helps the accomplice...
        assert attacked_reputation > control_reputation
        # ...but honest feedback from the rest of the community still keeps it
        # well below the standing of a cooperative peer.
        assert attacked_reputation < 0.8

    def test_colluders_keep_their_own_reputation_high(self):
        simulation = _collusion_sim(PARAMS, seed=7, ring_size=2)
        (colluder_id,) = simulation.adversary.colluder_ids
        # Colluders provide genuinely good service, so their reputation holds.
        assert simulation.store.global_reputation(colluder_id) > 0.7

    def test_oscillating_ring_degrades_service_during_milking_phases(self):
        """With ``oscillate`` on, colluders alternate build-up and milking."""
        spec = AdversarySpec(
            name="collusion_ring", count=3, start_time=500.0, interval=500.0
        )
        simulation = Simulation(PARAMS.with_overrides(adversary=spec), seed=9)
        simulation.setup()
        simulation.step(600)  # past the first toggle: milking phase
        qualities = {
            simulation.population.get(pid).behavior.service_quality
            for pid in simulation.adversary.colluder_ids
        }
        assert qualities == {0.05}
        simulation.step(500)  # past the second toggle: back to model citizens
        qualities = {
            simulation.population.get(pid).behavior.service_quality
            for pid in simulation.adversary.colluder_ids
        }
        assert qualities == {0.95}


def _whitewash_sim(
    base: SimulationParameters, seed: int, threshold: float = 0.3
) -> Simulation:
    spec = AdversarySpec(
        name="whitewash_waves",
        count=1,
        start_time=2_500.0,
        interval=500.0,
        options={"burn_threshold": threshold},
    )
    simulation = Simulation(base.with_overrides(adversary=spec), seed=seed)
    simulation.setup()
    simulation.step(4_000)
    return simulation


class TestWhitewashing:
    def test_whitewashing_does_not_restore_standing_under_lending(self):
        """Re-entering with a fresh identity means starting from zero again."""
        simulation = _whitewash_sim(PARAMS, seed=11)
        rebirths = simulation.adversary.rebirths
        assert rebirths, "the whitewasher never burned its identity"
        first = rebirths[0]
        assert first.burned_reputation < 0.3  # freeriding destroyed the identity
        # The fresh identity re-entered through the admission pipeline as a
        # complete stranger: zero reputation, and not a member until (unless)
        # someone vouches for it.
        assert first.fresh_reputation == pytest.approx(0.0)
        assert first.identities_used == 2
        assert first.fresh in simulation.population

    def test_departed_whitewasher_leaves_overlay_and_topology(self):
        simulation = _whitewash_sim(PARAMS, seed=13)
        rebirths = simulation.adversary.rebirths
        assert rebirths
        burned_id = rebirths[0].burned
        assert burned_id not in simulation.ring
        assert burned_id not in simulation.topology


def _attack_params(scheme: str, seed: int = 31) -> SimulationParameters:
    """The attack operating point on a registry scenario, backend swapped."""
    return get_scenario("tiny_test", seed=seed).with_overrides(
        reputation_scheme=scheme,
        arrival_rate=0.0,
        num_transactions=4_000,
        num_initial_peers=60,
        sample_interval=1_000.0,
        audit_transactions=10,
    )


class TestAttacksUnderBaselineBackends:
    """Whitewashers and colluders against the non-ROCQ backends."""

    def test_whitewashing_restores_standing_under_complaints_based_trust(self):
        """Complaints-based trust fully trusts strangers — whitewashing wins.

        This is the §1 failure mode the lending mechanism exists to close:
        the burned identity is worthless, but a fresh one starts at 1.0.
        """
        simulation = _whitewash_sim(
            _attack_params("complaints"), seed=11, threshold=0.2
        )
        rebirths = simulation.adversary.rebirths
        assert rebirths
        first = rebirths[0]
        assert first.burned_reputation < 0.2  # complaints piled up
        assert first.fresh_reputation == pytest.approx(1.0)
        assert first.fresh_reputation > first.burned_reputation

    def test_whitewashing_is_pointless_under_positive_only_reputation(self):
        """Positive-only freezes strangers at the bottom — nothing to gain.

        Positive-only scores never decay, so the pinned 0.5 standing is never
        "burned" in the rocq sense; the attacker discards the identity anyway
        (threshold above its standing) hoping a fresh start beats a mediocre
        one — and gets strictly less.
        """
        simulation = _whitewash_sim(
            _attack_params("positive_only"), seed=11, threshold=0.6
        )
        rebirths = simulation.adversary.rebirths
        assert rebirths
        first = rebirths[0]
        assert first.fresh_reputation == pytest.approx(0.0)
        # A fresh identity is never better than the burned one.
        assert first.fresh_reputation <= first.burned_reputation

    def test_colluders_inflate_an_accomplice_under_beta_reputation(self):
        control = _collusion_sim(_attack_params("beta"), seed=100, ring_size=1)
        attacked = _collusion_sim(_attack_params("beta"), seed=100, ring_size=4)
        control_rep = control.store.global_reputation(
            control.adversary.accomplice_id
        )
        attacked_rep = attacked.store.global_reputation(
            attacked.adversary.accomplice_id
        )
        # False praise counts as positive evidence in the Beta posterior...
        assert attacked_rep > control_rep
        # ...but the honest majority's negatives keep the freerider low.
        assert attacked_rep < 0.5
