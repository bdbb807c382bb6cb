"""Tests for the interaction topologies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationParameters, Topology
from repro.rng import Stream
from repro.topology.factory import make_topology
from repro.topology.random_topology import RandomTopology
from repro.topology.scale_free import ScaleFreeTopology


class TestRandomTopology:
    def test_sampling_from_empty_returns_none(self, rng):
        assert RandomTopology().sample_member(rng) is None

    def test_single_member_excluded_returns_none(self, rng):
        topology = RandomTopology()
        topology.add_member(1)
        assert topology.sample_member(rng, exclude=1) is None
        assert topology.sample_member(rng) == 1

    def test_add_and_remove_members(self, rng):
        topology = RandomTopology()
        for peer_id in range(5):
            topology.add_member(peer_id)
        assert len(topology) == 5
        topology.remove_member(2)
        assert 2 not in topology
        assert len(topology) == 4
        samples = {topology.sample_member(rng) for _ in range(200)}
        assert 2 not in samples

    def test_add_is_idempotent(self):
        topology = RandomTopology()
        topology.add_member(1)
        topology.add_member(1)
        assert len(topology) == 1

    def test_remove_unknown_is_noop(self):
        topology = RandomTopology()
        topology.remove_member(42)
        assert len(topology) == 0

    def test_sampling_is_roughly_uniform(self, rng):
        topology = RandomTopology()
        for peer_id in range(10):
            topology.add_member(peer_id)
        counts = np.zeros(10)
        for _ in range(5000):
            counts[topology.sample_member(rng)] += 1
        frequencies = counts / counts.sum()
        assert frequencies.max() < 0.2
        assert frequencies.min() > 0.04

    def test_exclusion_respected(self, rng):
        topology = RandomTopology()
        for peer_id in range(4):
            topology.add_member(peer_id)
        for _ in range(100):
            assert topology.sample_member(rng, exclude=0) != 0


class TestScaleFreeTopology:
    def _grown(self, members: int = 60) -> ScaleFreeTopology:
        topology = ScaleFreeTopology(attachment=2, rng=Stream(3))
        for peer_id in range(members):
            topology.add_member(peer_id)
        return topology

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            ScaleFreeTopology(attachment=0)
        with pytest.raises(ValueError):
            ScaleFreeTopology(exponent=-1.0)

    def test_membership_tracking(self, rng):
        topology = self._grown(20)
        assert len(topology) == 20
        assert 3 in topology
        topology.remove_member(3)
        assert 3 not in topology

    def test_every_member_has_positive_degree(self):
        topology = self._grown(50)
        for peer_id in range(50):
            assert topology.degree(peer_id) >= 1

    def test_sampling_prefers_high_degree_nodes(self, rng):
        topology = self._grown(80)
        degrees = {peer_id: topology.degree(peer_id) for peer_id in range(80)}
        counts = {peer_id: 0 for peer_id in range(80)}
        for _ in range(20000):
            counts[topology.sample_member(rng)] += 1
        top_degree = sorted(degrees, key=degrees.get, reverse=True)[:8]
        bottom_degree = sorted(degrees, key=degrees.get)[:8]
        top_rate = sum(counts[p] for p in top_degree)
        bottom_rate = sum(counts[p] for p in bottom_degree)
        assert top_rate > 2 * bottom_rate

    def test_degree_distribution_is_heavy_tailed(self):
        topology = self._grown(300)
        degrees = np.array([topology.degree(p) for p in range(300)])
        # A handful of hubs should have degree far above the median.
        assert degrees.max() >= 4 * np.median(degrees)

    def test_exclusion_respected(self, rng):
        topology = self._grown(10)
        for _ in range(100):
            assert topology.sample_member(rng, exclude=0) != 0

    def test_removal_excludes_from_sampling(self, rng):
        topology = self._grown(30)
        for peer_id in range(10):
            topology.remove_member(peer_id)
        samples = {topology.sample_member(rng) for _ in range(500)}
        assert samples.isdisjoint(set(range(10)))

    def test_deterministic_given_rng(self, rng):
        def build():
            topology = ScaleFreeTopology(attachment=2, rng=Stream(42))
            for peer_id in range(30):
                topology.add_member(peer_id)
            return [topology.degree(p) for p in range(30)]

        assert build() == build()


class TestTopologyFactory:
    def test_random_topology_from_params(self):
        params = SimulationParameters(topology=Topology.RANDOM)
        assert isinstance(make_topology(params), RandomTopology)

    def test_scale_free_topology_from_params(self):
        params = SimulationParameters(topology=Topology.SCALE_FREE)
        topology = make_topology(params)
        assert isinstance(topology, ScaleFreeTopology)
        assert topology.attachment == params.scale_free_attachment

    def test_sample_helpers_delegate(self, rng):
        params = SimulationParameters(topology=Topology.RANDOM)
        topology = make_topology(params)
        topology.add_member(1)
        topology.add_member(2)
        assert topology.sample_respondent(rng, requester=1) == 2
        assert topology.sample_introducer(rng, applicant=1) == 2
