"""The trace replayer: re-inject a recorded arrival workload.

What replay pins down is the **exogenous** workload — the arrival times and
each arrival's ground-truth behaviour and introducer policy, exactly as
recorded.  Everything *endogenous* (admission decisions, transactions,
sampling, adversary actions) runs live against whatever scheme/knobs the
replay was configured with:

* replaying under the **same** parameters and seed reproduces the original
  run bit-for-bit (named RNG streams are independent, so skipping the
  arrival/behaviour draws perturbs nothing else);
* replaying under a **different** scheme (or knob set) answers the paper's
  A/B question exactly: same community, same workload, different rules.

The replayer swaps the engine's arrival process and arrival factory for
trace-fed stand-ins; the engine itself is unmodified and unaware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.policies import (
    IntroducerPolicy,
    NaivePolicy,
    RefusingPolicy,
    SelectivePolicy,
)
from ..metrics.summary import RunSummary, summary_digest
from ..peers.behavior import BehaviorKind, BehaviorModel, make_behavior
from ..peers.peer import Peer
from ..sim.arrivals import ArrivalFactory
from ..sim.engine import Simulation
from .log import TraceFormatError, TraceLog, TraceRecord
from .recorder import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import SimulationParameters

__all__ = [
    "build_replay_simulation",
    "replay_simulation",
    "TraceArrivalProcess",
    "TraceArrivalFactory",
]


class _ArrivalFeed:
    """Shared cursor over the recorded arrivals.

    The engine asks the arrival process *when* the next arrival happens and,
    on handling that event, asks the factory to create the peer; both sides
    must stay in lockstep, so they share this cursor.
    """

    def __init__(self, records: list[TraceRecord]) -> None:
        self._arrivals: list[tuple[float, dict]] = []
        for record in records:
            peers = record.payload.get("new_peers") or []
            if len(peers) != 1:
                raise TraceFormatError(
                    f"arrival record {record.index} created {len(peers)} peers; "
                    "a well-formed trace has exactly one peer per arrival"
                )
            self._arrivals.append((record.time, peers[0]))
        self._cursor = 0

    def peek_time(self) -> float:
        """Time of the next unreplayed arrival (``inf`` when exhausted)."""
        if self._cursor >= len(self._arrivals):
            return float("inf")
        return self._arrivals[self._cursor][0]

    def take(self, time: float) -> dict:
        """Consume the next arrival, which must be scheduled for ``time``."""
        if self._cursor >= len(self._arrivals):
            raise TraceFormatError(
                f"replay requested an arrival at t={time} but the trace has "
                "no arrivals left"
            )
        recorded_time, document = self._arrivals[self._cursor]
        if recorded_time != time:
            raise TraceFormatError(
                f"replay asked for an arrival at t={time} but the next "
                f"recorded arrival is at t={recorded_time}"
            )
        self._cursor += 1
        return document


@dataclass
class TraceArrivalProcess:
    """Drop-in for :class:`~repro.sim.arrivals.PoissonArrivalProcess` that
    schedules exactly the recorded arrival times (no RNG draws)."""

    feed: _ArrivalFeed

    def next_arrival_after(self, time: float) -> float:
        return self.feed.peek_time()


@dataclass
class TraceArrivalFactory:
    """Drop-in for :class:`~repro.sim.arrivals.ArrivalFactory` that rebuilds
    each recorded arrival instead of drawing behaviour/policy."""

    feed: _ArrivalFeed
    inner: ArrivalFactory

    def create_arrival(self, time: float) -> Peer:
        document = self.feed.take(time)
        return self.inner.population.create_peer(
            behavior=_rebuild_behavior(document),
            introducer_policy=_rebuild_policy(document),
            is_founder=False,
        )

    def create_founder(self) -> Peer:
        # Founders are part of the simulated *configuration*, not the
        # workload: they draw live (the draws happen before any skipped
        # arrival draw, so same-seed replays see identical founders).
        return self.inner.create_founder()


def _rebuild_behavior(document: dict) -> BehaviorModel:
    try:
        kind = BehaviorKind(document["kind"])
        quality = float(document["sq"])
    except (KeyError, ValueError) as exc:
        raise TraceFormatError(f"malformed arrival record: {document!r}") from exc
    return make_behavior(
        kind, cooperative_quality=quality, uncooperative_quality=quality
    )


def _rebuild_policy(document: dict) -> IntroducerPolicy | None:
    name = document.get("policy")
    if name is None:
        return None
    if name == "naive":
        return NaivePolicy()
    if name == "selective":
        return SelectivePolicy(error_rate=float(document.get("err", 0.1)))
    if name == "refusing":
        return RefusingPolicy()
    raise TraceFormatError(f"unknown introducer policy in trace: {name!r}")


def build_replay_simulation(
    log: TraceLog,
    params: "SimulationParameters | None" = None,
    seed: int | None = None,
) -> Simulation:
    """Build a simulation that replays ``log``'s arrival workload.

    ``params`` defaults to the recorded parameters (exact reproduction);
    pass modified parameters — a different scheme, knob set or adversary —
    for an A/B replay of the same workload.  ``seed`` defaults to the
    recorded master seed.  A horizon shorter than the recording simply
    leaves late arrivals unreplayed; a longer one runs out of arrivals and
    sees none past the recorded window.
    """
    resolved = log.parameters() if params is None else params
    master_seed = log.seed if seed is None else seed
    sim = Simulation(resolved, seed=master_seed)
    feed = _ArrivalFeed(log.arrival_records())
    sim.arrivals = TraceArrivalProcess(feed)
    sim.factory = TraceArrivalFactory(feed=feed, inner=sim.factory)
    return sim


def replay_simulation(
    log: TraceLog,
    params: "SimulationParameters | None" = None,
    seed: int | None = None,
    record: bool = False,
    digest_every: int = 1,
) -> tuple[RunSummary, TraceLog | None]:
    """Replay a recorded trace; optionally record the replayed run too.

    Returns ``(summary, new_log)`` where ``new_log`` is the replayed run's
    own trace when ``record`` is true (for bisection against the original)
    and ``None`` otherwise.
    """
    sim = build_replay_simulation(log, params=params, seed=seed)
    recorder: TraceRecorder | None = None
    if record:
        # The arrival schedule and arrival behaviour come from the trace, so
        # those streams' RNG states are pinned: not hashed, not diffed.
        recorder = TraceRecorder(
            digest_every=digest_every, pinned_streams=("arrivals", "behaviour")
        )
        sim.attach_tracer(recorder)
    summary = sim.run()
    new_log: TraceLog | None = None
    if recorder is not None:
        new_log = recorder.log
        assert new_log is not None
        new_log.summary_digest = summary_digest(summary)
    return summary, new_log
