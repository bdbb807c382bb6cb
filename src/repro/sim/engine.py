"""The simulation orchestrator.

:class:`Simulation` wires every subsystem together — population, topology,
overlay ring, reputation backend, lending manager, admission controller,
metrics — and advances simulated time one transaction per unit, processing
arrivals, delayed admission responses and periodic samples through a
discrete-event queue exactly as the paper's simulator does.

The reputation system is pluggable: ``params.reputation_scheme`` selects a
backend from the registry in :mod:`repro.reputation.backend` (the paper's
ROCQ store by default; EigenTrust, beta, tit-for-tat, complaints-based and
positive-only reputation as comparison baselines), and the engine only ever
talks to it through the :class:`~repro.reputation.backend.ReputationBackend`
protocol.

Typical use::

    from repro import SimulationParameters, run_simulation

    params = SimulationParameters(num_transactions=50_000)
    summary = run_simulation(params, seed=7)
    print(summary.final_cooperative, summary.final_uncooperative)
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING

from ..adversary import make_adversary
from ..config import SimulationParameters
from ..core.admission import AdmissionController, AdmissionRequest
from ..core.lending import LendingManager
from ..errors import SimulationError
from ..ids import PeerId
from ..metrics.collector import MetricsCollector
from ..metrics.summary import RunSummary
from ..overlay.assignment import ScoreManagerAssignment
from ..overlay.ring import ChordRing
from ..peers.peer import Peer, PeerStatus
from ..peers.population import Population
from ..reputation.backend import make_reputation_backend
from ..rng import RandomStreams
from ..topology.factory import make_topology
from .arrivals import ArrivalFactory, PoissonArrivalProcess
from .clock import SimulationClock
from .event_queue import EventQueue
from .events import Event, EventKind
from .transactions import TransactionEngine

if TYPE_CHECKING:
    from ..storage import BackendPersistence

__all__ = ["Simulation", "run_simulation"]


class Simulation:
    """One complete simulation run of the reputation-lending community."""

    def __init__(
        self,
        params: SimulationParameters,
        seed: int | None = None,
        persistence: "BackendPersistence | None" = None,
    ) -> None:
        self.params = params
        self.seed = params.seed if seed is None else seed
        self.streams = RandomStreams(self.seed)
        self.clock = SimulationClock()
        self.population = Population()
        self.topology = make_topology(params, self.streams.stream("topology"))
        self.ring = ChordRing()
        self.assignment = ScoreManagerAssignment(
            ring=self.ring, num_score_managers=params.num_score_managers
        )
        self.store = make_reputation_backend(params, assignment=self.assignment)
        # Optional durable persistence (repro.storage): restore the backend
        # from its checkpoint now — before setup() seeds founders — so a
        # resumed run starts from exactly the state the last run saved, and
        # checkpoint it again in _finalize().
        self.persistence = persistence
        if persistence is not None and persistence.resume:
            persistence.restore(self.store)
        self.lending = LendingManager(store=self.store, params=params)
        self.admission = AdmissionController(
            params=params,
            topology=self.topology,
            store=self.store,
            lending=self.lending,
            rng=self.streams.stream("admission"),
        )
        self.metrics = MetricsCollector()
        self.arrivals = PoissonArrivalProcess(
            rate=params.arrival_rate, rng=self.streams.stream("arrivals")
        )
        self.factory = ArrivalFactory(
            params=params,
            population=self.population,
            rng=self.streams.stream("behaviour"),
        )
        self.transactions = TransactionEngine(
            params=params,
            population=self.population,
            topology=self.topology,
            store=self.store,
            lending=self.lending,
            metrics=self.metrics,
            rng=self.streams.stream("transactions"),
        )
        self.events = EventQueue()
        self._introducer_rng = self.streams.stream("introducer_choice")
        # The adversary workload, if any.  With ``params.adversary is None``
        # (the default) nothing is built, no events are scheduled and no
        # extra random streams exist — the seed engine's exact behaviour.
        self.adversary = (
            make_adversary(params.adversary) if params.adversary is not None else None
        )
        # Adversary runs keep the per-peer scores every periodic sample
        # already reads, so the detection subsystem (repro.detection) can
        # label score histories against ground truth.  Plain runs leave the
        # flag off and stay byte-identical to the seed engine.
        self.metrics.capture_scores = self.adversary is not None
        self._initialized = False
        self._finished = False
        # Observers of the event dispatch (see :meth:`attach_tracer`).  The
        # one dispatch loop calls every tracer after each event and each
        # transaction slot; with none attached those calls loop over nothing.
        self._tracers: list = []

    # ------------------------------------------------------------------ #
    # Tracing                                                              #
    # ------------------------------------------------------------------ #
    def attach_tracer(self, tracer) -> None:
        """Attach an observer of the engine's event dispatch.

        A tracer must define all four hooks below.  The engine calls each one
        unconditionally, so a tracer that lacks one raises ``AttributeError``;
        a tracer with no use for a hook defines it as a no-op.

        * ``on_setup(sim)`` — called once at the end of :meth:`setup`, after
          founders, initial events and the adversary are installed;
        * ``on_event(sim, event)`` — called after each dispatched
          :class:`~repro.sim.events.Event` has been fully handled;
        * ``on_transaction(sim, now, outcome)`` — called after the
          transaction slot of each time unit (``outcome`` is the
          :class:`~repro.sim.transactions.TransactionOutcome`, or ``None``
          when no transaction could take place);
        * ``on_finalize(sim)`` — called at the end of the run, after the
          final metrics sample.

        Tracers are notified in attachment order.  This is the hook the
        trace recorder (:mod:`repro.trace`) builds on; tests use it for
        fault injection.
        """
        self._tracers.append(tracer)

    # ------------------------------------------------------------------ #
    # Setup                                                                #
    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        """Create the founding community and schedule the initial events."""
        if self._initialized:
            return
        founders = [
            self.factory.create_founder()
            for _ in range(self.params.num_initial_peers)
        ]
        for founder in founders:
            self._join_community(founder)
        # Reputations are installed only after the whole founding ring exists,
        # so every founder's score managers are their final assignment.
        for founder in founders:
            self.store.set_reputation(
                founder.peer_id, self.params.initial_member_reputation, 0.0
            )
        self.metrics.sample(0.0, self.population, self.store)
        first_arrival = self.arrivals.next_arrival_after(0.0)
        if first_arrival <= self.params.num_transactions:
            self.events.schedule(first_arrival, EventKind.ARRIVAL)
        if self.params.sample_interval <= self.params.num_transactions:
            self.events.schedule(self.params.sample_interval, EventKind.SAMPLE)
        self._initialized = True
        if self.adversary is not None:
            # Installed last, so an installing strategy sees exactly the state
            # a hand-rolled scenario would after ``setup()`` returned.
            self.adversary.install(self, 0.0)
            first_action = self.params.adversary.start_time
            if first_action <= self.params.num_transactions:
                self.events.schedule(first_action, EventKind.ADVERSARY)
        for tracer in self._tracers:
            tracer.on_setup(self)

    # ------------------------------------------------------------------ #
    # Main loop                                                            #
    # ------------------------------------------------------------------ #
    def run(self) -> RunSummary:
        """Run the configured number of transactions and return the summary."""
        if self._finished:
            raise SimulationError("this Simulation has already been run")
        self.setup()
        started = _time.perf_counter()
        horizon = self.params.num_transactions
        for step in range(1, horizon + 1):
            self._advance_to(float(step))
        self._finalize()
        elapsed = _time.perf_counter() - started
        self._finished = True
        return self._summary(elapsed)

    def step(self, transactions: int = 1) -> None:
        """Advance the simulation by ``transactions`` time units (for tests)."""
        self.setup()
        for _ in range(transactions):
            self._advance_to(self.clock.now + 1.0)

    def _advance_to(self, now: float) -> None:
        """Advance to time ``now``: process due events, then the transaction.

        The single main-loop body shared by :meth:`run` and :meth:`step`, so
        the two cannot drift apart.  Traced and untraced runs take the same
        path: each attached tracer is called after every handled event and
        after the transaction slot.
        """
        clock = self.clock
        if now >= clock.now:
            # Inlined ``SimulationClock.advance_to`` (forward moves only —
            # the monotonicity guard lives in the rare else branch).
            clock.now = now
        else:
            clock.advance_to(now)
        events = self.events
        tracers = self._tracers
        while events.next_time() <= now:
            event = events.pop()
            self._handle_event(event)
            for tracer in tracers:
                tracer.on_event(self, event)
        outcome = self.transactions.execute(now)
        for tracer in tracers:
            tracer.on_transaction(self, now, outcome)

    def _finalize(self) -> None:
        """End-of-run bookkeeping: take the final metrics sample.

        Outstanding lending contracts are deliberately left unsettled — the
        paper audits an entrant only after it completed ``auditTrans``
        transactions, so forcing an early audit at the end of the run would
        unfairly fail cooperative entrants that simply have not had enough
        opportunities to interact yet.
        """
        last_sample = (
            self.metrics.cooperative_count.times[-1]
            if self.metrics.cooperative_count
            else -1.0
        )
        if self.clock.now > last_sample:
            self.metrics.sample(self.clock.now, self.population, self.store)
        for tracer in self._tracers:
            tracer.on_finalize(self)
        if self.persistence is not None:
            self.persistence.checkpoint(self.store, time=self.clock.now)

    # ------------------------------------------------------------------ #
    # Event handling                                                       #
    # ------------------------------------------------------------------ #
    def _handle_event(self, event: Event) -> None:
        if event.kind == EventKind.ARRIVAL:
            self._handle_arrival(event.time)
        elif event.kind == EventKind.ADMISSION_RESPONSE:
            self._handle_admission_response(event.payload, event.time)
        elif event.kind == EventKind.SAMPLE:
            self._handle_sample(event.time)
        elif event.kind == EventKind.DEPARTURE:
            self._handle_departure(event.payload, event.time)
        elif event.kind == EventKind.ADVERSARY:
            self._handle_adversary_action(event.time)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unhandled event kind: {event.kind}")

    def _handle_arrival(self, time: float) -> None:
        """A new peer arrives, picks an introducer, and requests admission."""
        peer = self.factory.create_arrival(time)
        self._request_admission(peer, time)
        next_arrival = self.arrivals.next_arrival_after(time)
        if next_arrival <= self.params.num_transactions:
            self.events.schedule(next_arrival, EventKind.ARRIVAL)

    def _request_admission(self, peer: Peer, time: float) -> None:
        """Send ``peer`` through the admission pipeline (shared arrival body)."""
        self.metrics.record_arrival(peer)
        introducer = self._choose_introducer(peer)
        request = self.admission.request_admission(peer, introducer, time)
        if request.respond_at <= time:
            self._handle_admission_response(request, time)
        else:
            self.events.schedule(
                request.respond_at, EventKind.ADMISSION_RESPONSE, payload=request
            )

    def _choose_introducer(self, applicant: Peer) -> Peer | None:
        """Pick the member the applicant asks, according to the topology."""
        introducer_id = self.topology.sample_introducer(
            self._introducer_rng, applicant.peer_id
        )
        if introducer_id is None:
            return None
        return self.population.get(introducer_id)

    def _handle_admission_response(self, request: AdmissionRequest, time: float) -> None:
        """The waiting period elapsed: apply the admission decision."""
        result = self.admission.resolve(request, time)
        peer = self.population.get(result.applicant)
        if result.admitted:
            self._join_community(peer)
            self.admission.grant_initial_standing(peer.peer_id, time)
            self.metrics.record_admission(peer)
        else:
            self.population.reject(peer.peer_id)
            if result.refusal_reason is not None:
                self.metrics.record_refusal(result.refusal_reason, peer)

    def _handle_sample(self, time: float) -> None:
        """Periodic metrics snapshot."""
        self.metrics.sample(time, self.population, self.store)
        next_sample = time + self.params.sample_interval
        if next_sample <= self.params.num_transactions:
            self.events.schedule(next_sample, EventKind.SAMPLE)

    def _handle_adversary_action(self, time: float) -> None:
        """One tick of the configured adversary's deterministic schedule."""
        assert self.adversary is not None  # only scheduled when configured
        self.adversary.act(self, time)
        next_action = time + self.params.adversary.interval
        if next_action <= self.params.num_transactions:
            self.events.schedule(next_action, EventKind.ADVERSARY)

    def _handle_departure(self, peer_id: PeerId, time: float) -> None:
        """A member leaves the community (whitewashing / churn scenarios)."""
        peer = self.population.get(peer_id)
        if not peer.is_active:
            return
        self.population.depart(peer_id)
        self.topology.remove_member(peer_id)
        if peer_id in self.ring:
            self.ring.leave(peer_id)
            self.store.membership_changed(self.ring.last_change)

    # ------------------------------------------------------------------ #
    # Membership side effects                                              #
    # ------------------------------------------------------------------ #
    def _join_community(self, peer: Peer) -> None:
        """Make ``peer`` an active member: population, overlay and topology."""
        self.population.admit(peer.peer_id)
        self.ring.join(peer.peer_id)
        if self.ring.last_change is not None:
            self.store.membership_changed(self.ring.last_change)
        self.topology.add_member(peer.peer_id)

    def schedule_departure(self, peer_id: PeerId, time: float) -> None:
        """Schedule a member's departure (public hook for churn scenarios)."""
        self.events.schedule(time, EventKind.DEPARTURE, payload=peer_id)

    def add_member(
        self,
        behavior,
        introducer_policy=None,
        initial_reputation: float | None = None,
        time: float | None = None,
    ) -> Peer:
        """Inject a custom member directly into the community.

        A scenario-building hook (collusion rings, whitewashing studies,
        hand-crafted populations): the peer bypasses the admission pipeline,
        joins the overlay and topology immediately, and optionally starts with
        an explicit reputation.  Returns the created :class:`Peer`.
        """
        self.setup()
        now = self.clock.now if time is None else time
        peer = self.population.create_peer(
            behavior=behavior,
            introducer_policy=introducer_policy,
            is_founder=False,
        )
        self._join_community(peer)
        if initial_reputation is not None:
            self.store.set_reputation(peer.peer_id, initial_reputation, now)
        return peer

    def inject_arrival(
        self,
        behavior,
        introducer_policy=None,
        time: float | None = None,
    ) -> Peer:
        """Inject a peer that must pass through the **real admission pipeline**.

        The counterpart of :meth:`add_member` for strangers: the peer is
        created in WAITING status, picks an introducer from the topology and
        requests admission exactly like a Poisson arrival — so the configured
        bootstrap mode (lending, open, fixed credit, closed) decides whether
        and with what standing it gets in.  Used by adversary strategies
        whose identities attack the front door (sybil swarms, reborn
        whitewashers).  Returns the created :class:`Peer`.
        """
        self.setup()
        now = self.clock.now if time is None else time
        peer = self.population.create_peer(
            behavior=behavior,
            introducer_policy=introducer_policy,
            is_founder=False,
        )
        self._request_admission(peer, now)
        return peer

    # ------------------------------------------------------------------ #
    # Results                                                              #
    # ------------------------------------------------------------------ #
    def _summary(self, elapsed_seconds: float) -> RunSummary:
        summary = RunSummary.from_run(
            params=self.params,
            seed=self.seed,
            collector=self.metrics,
            lending_stats=self.lending.stats,
            final_cooperative=self.population.count_active(cooperative=True),
            final_uncooperative=self.population.count_active(cooperative=False),
            final_waiting=len(self.population.waiting_peers()),
            final_rejected=len(self.population.peers_with_status(PeerStatus.REJECTED)),
            elapsed_seconds=elapsed_seconds,
        )
        if self.adversary is not None:
            summary.adversary_identities = sorted(
                {int(peer_id) for peer_id in self.adversary.attacker_ids}
            )
            summary.detection = self._detection_payload(summary.adversary_identities)
        return summary

    def _detection_payload(self, adversary_identities: list[int]) -> dict:
        """Ground-truth labelling data for :mod:`repro.detection`.

        One row per identity the run ever allocated — including WAITING and
        REJECTED peers: a whitewash rebirth refused at the door *is* a
        detected adversary, and dropping it would bias every detection
        metric toward the identities that got in — plus the raw score
        snapshots the metrics collector captured at every periodic sample.
        Runs *after* the final state digest and persistence checkpoint, so
        the extra backend reads cannot perturb trace bisection or
        checkpointed state.
        """
        adversary_ids = set(adversary_identities)
        reputation_of = self.store.global_reputation
        peers = [
            [
                int(peer.peer_id),
                float(reputation_of(peer.peer_id)),
                1 if peer.peer_id in adversary_ids else 0,
                1 if peer.is_cooperative else 0,
            ]
            for peer in sorted(self.population, key=lambda p: p.peer_id)
        ]
        return {
            "threshold": float(self.params.effective_min_intro_reputation()),
            "scheme": self.params.reputation_scheme,
            "peers": peers,
            "snapshots": [
                [time, list(ids), list(values)]
                for time, ids, values in self.metrics.score_snapshots
            ],
        }


def run_simulation(
    params: SimulationParameters,
    seed: int | None = None,
    persistence: "BackendPersistence | None" = None,
) -> RunSummary:
    """Convenience wrapper: build, run and summarise one simulation."""
    return Simulation(params, seed=seed, persistence=persistence).run()
