"""Micro-benchmarks of the performance-critical building blocks.

These are classic pytest-benchmark targets (many fast iterations): the
transaction hot path, feedback delivery to the replicated store, score-manager
assignment resolution, topology sampling and overlay joins.  They document the
cost model of the simulator and catch accidental slow-downs.
"""

from __future__ import annotations

from repro.config import SimulationParameters
from repro.overlay.assignment import ScoreManagerAssignment
from repro.overlay.ring import ChordRing
from repro.rng import Stream
from repro.rocq.protocol import FeedbackReport
from repro.rocq.store import ReputationStore
from repro.sim.engine import Simulation
from repro.topology.scale_free import ScaleFreeTopology


def _prepared_simulation(num_peers: int = 300) -> Simulation:
    params = SimulationParameters(
        num_initial_peers=num_peers,
        num_transactions=10_000,
        arrival_rate=0.0,
        sample_interval=5_000.0,
        seed=3,
    )
    simulation = Simulation(params)
    simulation.setup()
    return simulation


def test_transaction_throughput(benchmark):
    """One resource transaction end-to-end (selection, decision, feedback)."""
    simulation = _prepared_simulation()
    clock = iter(range(1, 10_000_000))

    def one_transaction():
        return simulation.transactions.execute(float(next(clock)))

    outcome = benchmark(one_transaction)
    assert outcome is not None


def test_report_delivery_throughput(benchmark):
    """Delivering one feedback report to all score-manager replicas."""
    ring = ChordRing()
    for peer_id in range(200):
        ring.join(peer_id)
    store = ReputationStore(
        assignment=ScoreManagerAssignment(ring=ring, num_score_managers=6)
    )
    counter = iter(range(1, 10_000_000))

    def deliver():
        time = float(next(counter))
        return store.submit_report(
            FeedbackReport(reporter=1, subject=2, value=1.0, quality=0.7, time=time)
        )

    value = benchmark(deliver)
    assert 0.0 <= value <= 1.0


def test_reputation_query_throughput(benchmark):
    """Querying the combined reputation of a peer (cache warm)."""
    simulation = _prepared_simulation()
    peer_id = simulation.population.active_ids[0]

    value = benchmark(simulation.store.global_reputation, peer_id)
    assert 0.0 <= value <= 1.0


def test_manager_assignment_resolution(benchmark):
    """Resolving the score managers of a peer without the store cache."""
    ring = ChordRing()
    for peer_id in range(1_000):
        ring.join(peer_id)
    assignment = ScoreManagerAssignment(ring=ring, num_score_managers=6)

    managers = benchmark(assignment.managers_for, 123)
    assert managers


def test_scale_free_sampling_throughput(benchmark):
    """Degree-proportional sampling from a 2,000-member scale-free topology."""
    topology = ScaleFreeTopology(attachment=2, rng=Stream(1))
    for peer_id in range(2_000):
        topology.add_member(peer_id)
    rng = Stream(2)

    member = benchmark(topology.sample_member, rng)
    assert member is not None


def test_overlay_join_cost(benchmark):
    """Joining one node to a 1,000-node ring (includes neighbour rewiring)."""
    ring = ChordRing()
    for peer_id in range(1_000):
        ring.join(peer_id)
    new_ids = iter(range(10_000, 10_000_000))

    def join_one():
        return ring.join(next(new_ids))

    node = benchmark(join_one)
    assert node.key >= 0
