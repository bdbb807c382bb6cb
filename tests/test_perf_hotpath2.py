"""Hot-path regression tests (rounds 2 and 3 of the performance work).

Four safety nets around the profile-guided optimisation passes:

* **Queue ordering** — :class:`EventQueue` pops by (time, insertion
  sequence) and refuses to schedule into the past.
* **Golden digests** — every optimised layer (incremental EigenTrust,
  batched/inlined ROCQ aggregation, slotted events) must reproduce the
  summary digests recorded on the pre-optimisation engine.
* **Trace replay** — a trace recorded before the optimisation round must
  replay bit-identically on the optimised engine.
* **Per-pair memory** — ROCQ's per-pair state (credibility and local
  opinions) stays in flat arrays, not one Python object per pair.
"""

from __future__ import annotations

import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import SimulationError
from repro.metrics.summary import summary_digest
from repro.reputation.eigentrust import EigenTrust
from repro.sim.engine import Simulation
from repro.sim.event_queue import EventQueue
from repro.sim.events import EventKind
from repro.trace import TraceLog, replay_simulation
from repro.workloads.scenarios import paper_default

DATA_DIR = Path(__file__).resolve().parent / "data"

#: Digest of ``preopt_tiny.jsonl``'s recorded run, captured on the
#: pre-optimisation engine.
PREOPT_TRACE_DIGEST = (
    "5a0b9ba8236e8ce849ce76e77043fa582b783b0a057f09c1f9287f5a0350ad9b"
)


def _golden_digests() -> dict[str, str]:
    return json.loads((DATA_DIR / "preopt_digests.json").read_text(encoding="utf-8"))


def _params_for(name):
    if name == "figure1_growth_1500_rocq":
        return (
            paper_default(seed=1).scaled(1500 / 500_000).with_overrides(
                arrival_rate=0.01
            )
        )
    scheme = name.replace("growth_stress_1500_", "")
    return (
        paper_default(seed=1)
        .scaled(1500 / 500_000)
        .with_overrides(arrival_rate=0.2, reputation_scheme=scheme)
    )


# --------------------------------------------------------------------- #
# Event queue ordering                                                    #
# --------------------------------------------------------------------- #
class TestEventQueueOrdering:
    def test_past_time_scheduling_raises(self):
        queue = EventQueue()
        queue.schedule(5.0, EventKind.SAMPLE)
        assert queue.pop().time == 5.0
        with pytest.raises(SimulationError):
            queue.schedule(4.999, EventKind.SAMPLE)
        # Exactly the last popped time is legal (the engine schedules
        # follow-ups at the current instant).
        queue.schedule(5.0, EventKind.SAMPLE)

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_same_time_events_pop_in_insertion_order(self):
        queue = EventQueue()
        for _ in range(5):
            queue.schedule(1.0, EventKind.SAMPLE)
        sequences = []
        while queue.next_time() <= 1.0:
            sequences.append(queue.pop().sequence)
        assert sequences == sorted(sequences)
        assert len(sequences) == 5


# --------------------------------------------------------------------- #
# Golden digests per optimisation layer                                   #
# --------------------------------------------------------------------- #
class TestGoldenDigests:
    """The optimised engine must be bit-identical to the pre-opt engine.

    Each scheme exercises a different optimised layer: ``eigentrust`` the
    incremental fixpoint, ``rocq`` the inlined manager aggregation and the
    flat credibility and opinion arrays, and every run the slotted events +
    slimmed dispatch loop.
    """

    @pytest.mark.parametrize(
        "name", sorted(_golden_digests())
    )
    def test_reproduces_preopt_digest(self, name):
        params = _params_for(name)
        digest = summary_digest(Simulation(params).run())
        assert digest == _golden_digests()[name], (
            f"{name}: optimised engine diverged from the pre-optimisation "
            f"golden digest"
        )


# --------------------------------------------------------------------- #
# Incremental EigenTrust == from-scratch                                  #
# --------------------------------------------------------------------- #
class TestIncrementalEigenTrust:
    def _random_feed(self, system: EigenTrust, seed: int, steps: int) -> None:
        rng = np.random.default_rng(seed)
        for step in range(steps):
            rater, subject = rng.integers(0, 30, size=2)
            if rater != subject:
                system.record_interaction(
                    int(rater), int(subject), bool(rng.random() < 0.7)
                )
            if step % 9 == 0:
                system.score_table()

    def test_incremental_matrix_equals_from_scratch(self):
        system = EigenTrust(pre_trusted={0, 1}, full_recompute_every=10_000)
        self._random_feed(system, seed=11, steps=500)
        system.score_table()
        peers = sorted(system.log.peers)
        assert np.array_equal(system._matrix, system._local_trust_matrix(peers))
        assert system.incremental_refreshes > 0

    def test_incremental_scores_equal_always_rebuild_replay(self):
        """Same feed, same refresh schedule: dirty-row updates vs rebuilds."""
        incremental = EigenTrust(full_recompute_every=10_000)
        rebuild = EigenTrust(full_recompute_every=1)
        self._random_feed(incremental, seed=23, steps=400)
        self._random_feed(rebuild, seed=23, steps=400)
        assert incremental.score_table() == rebuild.score_table()
        assert incremental.incremental_refreshes > 0
        assert rebuild.full_rebuilds > incremental.full_rebuilds

    def test_safety_valve_forces_periodic_rebuild(self):
        system = EigenTrust(full_recompute_every=3)
        system.record_interaction(1, 2, True)
        system.score_table()  # first build
        rebuilds_after_first = system.full_rebuilds
        for _ in range(7):
            system.record_interaction(1, 2, True)
            system.score_table()
        assert system.full_rebuilds > rebuilds_after_first

    def test_peer_set_change_forces_rebuild(self):
        system = EigenTrust(full_recompute_every=10_000)
        system.record_interaction(1, 2, True)
        system.score_table()
        before = system.full_rebuilds
        system.record_interaction(3, 1, False)  # new peer joins the log
        system.score_table()
        assert system.full_rebuilds == before + 1

    def test_rejects_nonpositive_valve(self):
        with pytest.raises(ValueError):
            EigenTrust(full_recompute_every=0)


# --------------------------------------------------------------------- #
# Pre-optimisation trace replays bit-identically                          #
# --------------------------------------------------------------------- #
class TestPreoptTraceReplay:
    def test_preopt_trace_replays_bit_identically(self):
        log = TraceLog.load(DATA_DIR / "preopt_tiny.jsonl")
        replayed, _ = replay_simulation(log)
        assert summary_digest(replayed) == PREOPT_TRACE_DIGEST


# --------------------------------------------------------------------- #
# Per-pair memory of ROCQ state                                           #
# --------------------------------------------------------------------- #
#: Upper bound on the live bytes the program holds per (manager, reporter)
#: credibility entry plus local opinion after a paper_default run at 5k
#: transactions.  Flat arrays read about 91 B on CPython 3.11; one object
#: per pair read about 150 B.
MAX_BYTES_PER_PAIR = 115


class TestPerPairMemory:
    def test_per_pair_state_stays_flat(self):
        params = paper_default(seed=1).scaled(0.01)
        tracemalloc.start()
        try:
            sim = Simulation(params)
            sim.run()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        # Only allocations made from the package's own frames count, so a
        # coverage tracer's (or pytest's) allocations do not.
        package = os.path.join(os.path.dirname(repro.__file__), "*")
        ours = snapshot.filter_traces([tracemalloc.Filter(True, package)])
        traced = sum(stat.size for stat in ours.statistics("filename"))
        managers = sim.store.export_state()["managers"].values()
        credibility = sum(len(manager["credibility"]) for manager in managers)
        opinions = sum(len(peer.opinions) for peer in sim.population)
        assert credibility > 40_000 and opinions > 9_000
        per_pair = traced / (credibility + opinions)
        assert per_pair < MAX_BYTES_PER_PAIR, (
            f"{per_pair:.1f} B per credibility entry or opinion "
            f"({traced} B over {credibility} + {opinions})"
        )
