"""Hot-path and memory regression tests of the performance work.

Six safety nets around the profile-guided optimisation passes:

* **Queue ordering** — :class:`EventQueue` pops by (time, insertion
  sequence) and refuses to schedule into the past.
* **Golden digests** — every optimised layer (batched/inlined ROCQ
  aggregation, slotted events) must reproduce the summary digests recorded
  on the pre-optimisation engine, also when ``sum()`` rounds floats as
  Python 3.12 does.
* **Trace replay** — a trace recorded before the optimisation round must
  replay bit-identically on the optimised engine.
* **Per-pair memory** — ROCQ's per-pair state (credibility and local
  opinions) stays in flat arrays found through sorted id arrays, not one
  Python object per pair or a hash table per table.
* **Per-peer memory** — at a high arrival rate most peers transact a few
  times or never, so the fixed containers each peer and replica carries
  stay small.
* **Checkpoint memory** — a checkpoint encodes the ROCQ state one score
  manager at a time, so its peak stays near the text it stores.
"""

from __future__ import annotations

import builtins
import json
import math
import os
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.errors import SimulationError
from repro.metrics.summary import summary_digest
from repro.sim.engine import Simulation
from repro.sim.event_queue import EventQueue
from repro.sim.events import EventKind
from repro.storage import BackendPersistence, make_store
from repro.trace import TraceLog, replay_simulation
from repro.workloads.scenarios import high_arrival_stress, paper_default

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
    sparse power iteration, ``rocq`` the inlined manager aggregation and the
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
# Digests do not depend on how builtins.sum rounds floats                 #
# --------------------------------------------------------------------- #
_BUILTIN_SUM = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """``sum()`` as Python 3.12 computes it: Neumaier-compensated for floats.

    Anything but an all-float sum falls back to the interpreter's own
    ``sum()``, whose integer and object paths did not change.
    """
    items = list(iterable)
    if not items or not all(type(item) is float for item in items):
        return _BUILTIN_SUM(items, start)
    total = start + items[0]
    compensation = 0.0
    for item in items[1:]:
        step = total + item
        if abs(total) >= abs(item):
            compensation += (total - step) + item
        else:
            compensation += (item - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


class TestDigestsUnderCompensatedSum:
    """Python 3.12 changed ``sum()`` of floats to a compensated sum.

    With that sum on any interpreter, every golden digest and the preopt
    replay still hold, so the digests are the same on Python 3.10–3.13.
    """

    def test_compensated_sum_rounds_differently(self):
        values = [1.0, 1e100, 1.0, -1e100]
        assert _compensated_sum(values) == 2.0
        total = 0.0
        for value in values:
            total += value
        assert total == 0.0

    @pytest.mark.parametrize("name", sorted(_golden_digests()))
    def test_golden_digest(self, name, monkeypatch):
        monkeypatch.setattr(builtins, "sum", _compensated_sum)
        digest = summary_digest(Simulation(_params_for(name)).run())
        assert digest == _golden_digests()[name]

    def test_preopt_trace_replay(self, monkeypatch):
        monkeypatch.setattr(builtins, "sum", _compensated_sum)
        replayed, _ = replay_simulation(TraceLog.load(DATA_DIR / "preopt_tiny.jsonl"))
        assert summary_digest(replayed) == PREOPT_TRACE_DIGEST


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
#: Frames tracemalloc keeps per allocation.  Two reach, past a dataclass's
#: generated ``__init__`` (whose frame is ``<string>``, outside the
#: package), the package frame that called it; four leave room for a
#: standard-library frame between them.  Both count the same bytes today.
TRACE_FRAMES = 4


def _package_bytes_after_run(params) -> tuple[Simulation, int]:
    """Run ``params``; return the simulation and the live bytes it holds.

    A trace counts when any frame of its traceback is in the package, so an
    instance dict or a ``default_factory`` container built inside a
    generated ``__init__`` counts, and a coverage tracer's (or pytest's)
    own allocations do not.
    """
    tracemalloc.start(TRACE_FRAMES)
    try:
        sim = Simulation(params)
        sim.run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    package = os.path.join(os.path.dirname(repro.__file__), "*")
    ours = snapshot.filter_traces([tracemalloc.Filter(True, package, all_frames=True)])
    return sim, sum(trace.size for trace in ours.traces)


#: Upper bound on the live bytes the program holds per (manager, reporter)
#: credibility entry plus local opinion after a paper_default run at 5k
#: transactions.  Flat arrays aligned with sorted id arrays read 51.0 B on
#: CPython 3.11.7-3.13.0 and 52.6 B on 3.10.13.  Counted by each trace's
#: newest frame only, they read 57.5 B before opinion books were created
#: at first use, against 90.0 B for the same arrays reached through one
#: reporter -> slot (or subject -> slot) dict per table and about 150 B
#: for one object per pair.  So a return to a hash table per table fails
#: this bound.
MAX_BYTES_PER_PAIR = 75


class TestPerPairMemory:
    def test_per_pair_state_stays_flat(self):
        sim, traced = _package_bytes_after_run(paper_default(seed=1).scaled(0.01))
        managers = sim.store.export_state()["managers"].values()
        credibility = sum(len(manager["credibility"]) for manager in managers)
        opinions = sum(len(peer.opinions) for peer in sim.population)
        assert credibility > 40_000 and opinions > 9_000
        per_pair = traced / (credibility + opinions)
        assert per_pair < MAX_BYTES_PER_PAIR, (
            f"{per_pair:.1f} B per credibility entry or opinion "
            f"({traced} B over {credibility} + {opinions})"
        )


# --------------------------------------------------------------------- #
# Per-peer memory at a high arrival rate                                  #
# --------------------------------------------------------------------- #
#: Upper bound on the live bytes the program holds per peer ever created
#: after Table 1 at arrival rate 0.2 over 10k transactions (2,451 peers).
#: With the ownership index packed into one integer array per ring node,
#: opinion books of two arrays created at the first interaction, and slotted
#: per-peer objects, it reads 3,371 B on CPython 3.10.13 and 3,330 B on
#: 3.11.7, 3.12.1 and 3.13.0 (each score manager's ``records`` dict, built
#: in its generated ``__init__``, is 40 B of that).  An unslotted
#: ``AdmissionRequest`` alone reads 3,379 B on 3.10.13 and 3,332-3,334 B on
#: 3.11-3.13.  Undoing all the slots reads 3,803 B on 3.10.13, where an
#: instance dict is allocated in the generated ``__init__``, and
#: 3,488-3,525 B on 3.11-3.13 (both measured before ``AdmissionRequest``
#: was slotted).  Counted by each trace's newest frame only, the tree
#: before the index, the opinion books and the slots read 3,760, 3,989,
#: 3,952 and 3,981 B, undoing only the packed index 3,547-3,581 B and only
#: the opinion books 3,541-3,575 B on 3.11-3.13.
MAX_BYTES_PER_PEER = 3_400


class TestPerPeerMemory:
    def test_per_peer_overhead_stays_small(self):
        sim, traced = _package_bytes_after_run(high_arrival_stress().scaled(0.02))
        peers = len(sim.population)
        assert peers > 2_000
        per_peer = traced / peers
        assert per_peer < MAX_BYTES_PER_PEER, (
            f"{per_peer:.0f} B per peer ({traced} B over {peers} peers)"
        )


# --------------------------------------------------------------------- #
# Memory of one checkpoint                                                #
# --------------------------------------------------------------------- #
#: Upper bound on the traced memory one checkpoint of a ROCQ store adds at
#: its peak, per character of the JSON text it stores.  Encoding one score
#: manager at a time and joining the pieces once reads about 2.0 (the
#: pieces, then the text); building the whole ``export_state()`` tree
#: before encoding it read 7.8 on this run.  The peak counts every traced
#: allocation, a line tracer's included: a ``sys.settrace`` recorder shaped
#: like coverage's Python tracer added under 0.02 to the ratio on CPython
#: 3.11 and 3.12, but the coverage job's own tracer has not been measured
#: against this bound.
MAX_CHECKPOINT_PEAK_PER_CHAR = 2.5


class TestCheckpointMemory:
    def test_checkpoint_peak_stays_near_the_stored_text(self):
        sim = Simulation(paper_default(seed=1).scaled(0.02))
        sim.run()
        with make_store("memory://") as store:
            persistence = BackendPersistence(store, key="cp")
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                persistence.checkpoint(sim.store)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        stored = len(
            json.dumps(sim.store.export_state(), sort_keys=True, allow_nan=False)
        )
        assert stored > 2_000_000
        per_char = peak / stored
        assert per_char < MAX_CHECKPOINT_PEAK_PER_CHAR, (
            f"checkpoint peaked {peak} B above its start, "
            f"{per_char:.2f}x the {stored} characters it stored"
        )
