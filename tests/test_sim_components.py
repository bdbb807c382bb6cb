"""Tests for the discrete-event machinery: events, queue, clock, arrivals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationParameters
from repro.core.policies import NaivePolicy, SelectivePolicy
from repro.errors import SimulationError
from repro.peers.population import Population
from repro.rng import Stream
from repro.sim.arrivals import ArrivalFactory, PoissonArrivalProcess
from repro.sim.clock import SimulationClock
from repro.sim.event_queue import EventQueue
from repro.sim.events import Event, EventKind


class TestEventOrdering:
    def test_events_order_by_time_then_sequence(self):
        early = Event(time=1.0, sequence=5, kind=EventKind.ARRIVAL)
        late = Event(time=2.0, sequence=1, kind=EventKind.SAMPLE)
        tie_first = Event(time=2.0, sequence=0, kind=EventKind.SAMPLE)
        assert early < late
        assert tie_first < late

    def test_payload_not_part_of_ordering(self):
        a = Event(time=1.0, sequence=0, payload={"x": 1})
        b = Event(time=1.0, sequence=1, payload={"x": 2})
        assert a < b


class TestEventQueue:
    def test_pop_returns_events_in_time_order(self):
        queue = EventQueue()
        queue.schedule(5.0, EventKind.SAMPLE)
        queue.schedule(1.0, EventKind.ARRIVAL)
        queue.schedule(3.0, EventKind.ADMISSION_RESPONSE)
        times = [queue.pop().time for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_simultaneous_events_keep_scheduling_order(self):
        queue = EventQueue()
        first = queue.schedule(2.0, EventKind.ARRIVAL, payload="first")
        second = queue.schedule(2.0, EventKind.ARRIVAL, payload="second")
        assert queue.pop() is first
        assert queue.pop() is second

    def test_pop_due_yields_only_due_events(self):
        queue = EventQueue()
        queue.schedule(1.0, EventKind.ARRIVAL)
        queue.schedule(2.0, EventKind.ARRIVAL)
        queue.schedule(10.0, EventKind.SAMPLE)
        # The engine's dispatch loop: pop while the next event is due.
        due = []
        while queue.next_time() <= 5.0:
            due.append(queue.pop())
        assert [event.time for event in due] == [1.0, 2.0]
        assert len(queue) == 1

    def test_scheduling_into_the_past_raises(self):
        queue = EventQueue()
        queue.schedule(5.0, EventKind.SAMPLE)
        queue.pop()
        with pytest.raises(SimulationError):
            queue.schedule(1.0, EventKind.SAMPLE)

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_peek_and_next_time(self):
        queue = EventQueue()
        assert queue.peek() is None
        assert queue.next_time() == float("inf")
        queue.schedule(4.0, EventKind.SAMPLE)
        assert queue.peek() is not None
        assert queue.next_time() == pytest.approx(4.0)
        assert bool(queue)


class TestClock:
    def test_advance_forward(self):
        clock = SimulationClock()
        assert clock.advance_to(10.0) == pytest.approx(10.0)
        assert clock.now == pytest.approx(10.0)

    def test_advance_backwards_raises(self):
        clock = SimulationClock(now=5.0)
        with pytest.raises(SimulationError):
            clock.advance_to(4.0)


class TestPoissonArrivals:
    def test_zero_rate_never_arrives(self, rng):
        process = PoissonArrivalProcess(rate=0.0, rng=rng)
        assert process.next_arrival_after(10.0) == float("inf")

    def test_arrivals_strictly_after_reference_time(self, rng):
        process = PoissonArrivalProcess(rate=0.5, rng=rng)
        for _ in range(100):
            assert process.next_arrival_after(7.0) > 7.0

    def test_mean_interarrival_matches_rate(self, rng):
        rate = 0.05
        process = PoissonArrivalProcess(rate=rate, rng=rng)
        gaps = [process.next_arrival_after(0.0) for _ in range(4000)]
        assert np.mean(gaps) == pytest.approx(1.0 / rate, rel=0.1)
        assert process.arrivals_generated == 4000


class TestArrivalFactory:
    def _factory(self, **overrides):
        params = SimulationParameters(**overrides)
        population = Population()
        factory = ArrivalFactory(
            params=params, population=population, rng=Stream(3)
        )
        return factory, population

    def test_create_arrival_registers_waiting_peer(self):
        factory, population = self._factory()
        peer = factory.create_arrival(time=12.0)
        assert peer.peer_id in population
        assert peer.is_waiting
        assert not peer.is_founder

    def test_create_founder_is_cooperative(self):
        factory, _ = self._factory()
        founder = factory.create_founder()
        assert founder.is_founder
        assert founder.is_cooperative
        assert founder.introducer_policy is not None

    def test_uncooperative_fraction_statistics(self):
        factory, _ = self._factory(fraction_uncooperative=0.25)
        arrivals = [factory.create_arrival(time=0.0) for _ in range(3000)]
        uncooperative = sum(1 for peer in arrivals if not peer.is_cooperative)
        assert 0.20 < uncooperative / len(arrivals) < 0.30

    def test_uncooperative_arrivals_get_naive_policy(self):
        factory, _ = self._factory(fraction_uncooperative=1.0)
        arrivals = [factory.create_arrival(time=0.0) for _ in range(50)]
        assert all(isinstance(peer.introducer_policy, NaivePolicy) for peer in arrivals)

    def test_all_cooperative_when_fraction_zero(self):
        factory, _ = self._factory(fraction_uncooperative=0.0, fraction_naive=0.0)
        arrivals = [factory.create_arrival(time=0.0) for _ in range(50)]
        assert all(peer.is_cooperative for peer in arrivals)
        assert all(
            isinstance(peer.introducer_policy, SelectivePolicy) for peer in arrivals
        )
