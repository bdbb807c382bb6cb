"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading
from typing import Any, Callable

import pytest

from repro.config import SimulationParameters
from repro.ids import PeerIdAllocator
from repro.overlay.assignment import ScoreManagerAssignment
from repro.overlay.ring import ChordRing
from repro.peers.behavior import CooperativeBehavior, FreeriderBehavior
from repro.peers.population import Population
from repro.rng import Stream
from repro.rocq.store import ReputationStore
from repro.sim.engine import Simulation
from repro.workloads.scenarios import tiny_test


@pytest.fixture
def rng() -> Stream:
    """A deterministic stream for tests that need randomness.

    It draws exactly what ``numpy.random.default_rng(12345)`` draws.
    """
    return Stream(12345)


@pytest.fixture
def tiny_params() -> SimulationParameters:
    """A very small but complete configuration (runs in well under a second)."""
    return tiny_test(seed=11)


@pytest.fixture
def micro_params() -> SimulationParameters:
    """An even smaller configuration for engine unit tests."""
    return SimulationParameters(
        num_initial_peers=20,
        num_transactions=400,
        arrival_rate=0.05,
        waiting_period=20.0,
        sample_interval=100.0,
        audit_transactions=5,
        repeats=1,
        seed=5,
    )


@pytest.fixture
def ring_with_peers() -> ChordRing:
    """A ring populated with ten peers (ids 0..9)."""
    ring = ChordRing()
    for peer_id in range(10):
        ring.join(peer_id)
    return ring


@pytest.fixture
def store_with_ring(ring_with_peers: ChordRing) -> ReputationStore:
    """A reputation store wired to the ten-peer ring with 3 managers per peer."""
    assignment = ScoreManagerAssignment(ring=ring_with_peers, num_score_managers=3)
    return ReputationStore(assignment=assignment)


@pytest.fixture
def population_with_members() -> Population:
    """A population with five active cooperative members and one freerider."""
    population = Population(allocator=PeerIdAllocator())
    for _ in range(5):
        peer = population.create_peer(CooperativeBehavior(), is_founder=True)
        population.admit(peer.peer_id)
    freerider = population.create_peer(FreeriderBehavior())
    population.admit(freerider.peer_id)
    return population


@pytest.fixture
def micro_simulation(micro_params: SimulationParameters) -> Simulation:
    """A ready-to-run simulation at the micro scale."""
    return Simulation(micro_params)


@pytest.fixture
def note_second_slot_arrival() -> Callable[[Any], threading.Event]:
    """Wrap a service's one-job slot to see a second workflow wait for it.

    Call it with a :class:`~repro.api.SimulationService`; the event it
    returns is set once a second workflow has arrived at the slot, so it
    waits behind the first.
    """

    def wrap(service: Any) -> threading.Event:
        arrivals: list[None] = []
        queued = threading.Event()
        slot = service._slot

        class NoteQueueing:
            def __enter__(self):
                arrivals.append(None)
                if len(arrivals) == 2:
                    queued.set()
                return slot.__enter__()

            def __exit__(self, *exc_info):
                return slot.__exit__(*exc_info)

        service._slot = NoteQueueing()
        return queued

    return wrap
