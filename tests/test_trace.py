"""Tests for the trace engine: record, replay, diff/bisect, and the API facet.

The contracts pinned here:

* recording is a pure observer — a recorded run's summary digest equals the
  plain run's digest, bit for bit;
* a trace round-trips through its JSONL file losslessly;
* replaying a trace under the same configuration reproduces the recorded
  digest exactly (with and without an adversary), inline or in a worker;
* replaying under a different scheme runs to completion and diverges — the
  exact A/B the trace engine exists for;
* the divergence bisector pinpoints an injected single-event perturbation
  to its exact record index;
* ``RunRequest.trace`` validates up front, participates in the fingerprint,
  round-trips through JSON, and bypasses the run cache.
"""

from __future__ import annotations

import json

import pytest

from repro.api import RunRequest, SimulationService, UnknownNameError, summary_digest
from repro.config import AdversarySpec, SimulationParameters
from repro.errors import ConfigurationError
from repro.sim.engine import Simulation, run_simulation
from repro.trace import (
    TraceFormatError,
    TraceLog,
    TraceTruncatedError,
    TraceRecorder,
    TraceSpec,
    diff_traces,
    engine_state_digest,
    first_divergence,
    load_trace_header,
    record_simulation,
    replay_simulation,
)

#: A fast operating point with enough churn to exercise arrivals, waiting
#: queues and lending audits within a couple hundred transactions.
SMALL = dict(
    num_initial_peers=15,
    num_transactions=250,
    arrival_rate=0.08,
    waiting_period=20.0,
    sample_interval=50.0,
    num_score_managers=3,
)


def small_params(**overrides) -> SimulationParameters:
    merged = {**SMALL, **overrides}
    return SimulationParameters(**merged)


@pytest.fixture(scope="module")
def recorded():
    """One recorded run shared by the read-only tests: (summary, log)."""
    return record_simulation(small_params(), seed=9)


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory, recorded):
    path = tmp_path_factory.mktemp("traces") / "base.jsonl"
    recorded[1].save(path)
    return path


class TestRecorder:
    def test_recording_is_a_pure_observer(self, recorded):
        summary, _ = recorded
        plain = run_simulation(small_params(), seed=9)
        assert summary_digest(summary) == summary_digest(plain)

    def test_trace_shape(self, recorded):
        _, log = recorded
        assert log.records[0].kind == "setup"
        assert [record.index for record in log.records] == list(range(len(log.records)))
        assert log.final_state_digest
        assert log.summary_digest
        arrivals = log.arrival_records()
        assert arrivals, "the small workload admits arrivals"
        for record in arrivals:
            assert len(record.payload["new_peers"]) == 1
        # One transaction slot per time unit, each reported exactly once.
        transactions = [
            record for record in log.records if record.kind == "transaction"
        ]
        assert len(transactions) == small_params().num_transactions

    def test_digest_every_thins_digests_not_payloads(self):
        _, log = record_simulation(small_params(), seed=9, digest_every=10)
        for record in log.records:
            if record.index % 10 == 0:
                assert record.state_digest
            else:
                assert not record.state_digest
            assert record.payload is not None


class TestRoundTrip:
    def test_save_load_is_lossless(self, recorded, trace_file):
        _, log = recorded
        loaded = TraceLog.load(trace_file)
        assert loaded.seed == log.seed
        assert loaded.params == log.params
        assert loaded.digest_every == log.digest_every
        assert loaded.records == log.records
        assert loaded.final_state_digest == log.final_state_digest
        assert loaded.summary_digest == log.summary_digest

    def test_header_loads_without_reading_records(self, recorded, trace_file):
        _, log = recorded
        header = load_trace_header(trace_file)
        assert header.seed == log.seed
        assert header.parameters() == small_params()

    def test_truncated_trace_is_rejected(self, tmp_path, recorded, trace_file):
        truncated = tmp_path / "truncated.jsonl"
        lines = trace_file.read_text().splitlines()
        truncated.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TraceFormatError):
            TraceLog.load(truncated)

    def test_truncation_reported_distinctly_from_version_errors(
        self, tmp_path, recorded, trace_file
    ):
        """A footer-less file raises TraceTruncatedError ("the recording run
        did not finish"); a newer format version stays a plain
        TraceFormatError — callers can tell the two apart."""
        lines = trace_file.read_text().splitlines()
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TraceTruncatedError, match="truncated trace"):
            TraceLog.load(truncated)
        header = json.loads(lines[0])
        header["version"] = 99
        newer = tmp_path / "newer.jsonl"
        newer.write_text(json.dumps(header) + "\n" + "\n".join(lines[1:]) + "\n")
        with pytest.raises(TraceFormatError, match="version") as excinfo:
            TraceLog.load(newer)
        assert not isinstance(excinfo.value, TraceTruncatedError)

    def test_save_is_atomic(self, tmp_path, recorded):
        """A save that dies mid-write leaves the previous file intact and no
        temp litter; readers never observe a footer-less trace."""
        _, log = recorded
        target = tmp_path / "atomic.jsonl"
        log.save(target)
        before = target.read_bytes()

        class Unserialisable:
            pass

        broken = TraceLog(
            seed=log.seed,
            params={"poison": Unserialisable()},
            records=list(log.records),
        )
        with pytest.raises(TypeError):
            broken.save(target)
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir() if ".tmp-" in p.name] == []


class TestReplay:
    def test_same_scheme_replay_is_bit_identical(self, recorded):
        summary, log = recorded
        replayed, _ = replay_simulation(log)
        assert summary_digest(replayed) == summary_digest(summary)

    def test_replay_with_adversary_is_bit_identical(self):
        params = small_params(
            adversary=AdversarySpec(
                name="whitewash_waves", count=2, start_time=50.0, interval=60.0
            )
        )
        summary, log = record_simulation(params, seed=9)
        replayed, _ = replay_simulation(log)
        assert summary_digest(replayed) == summary_digest(summary)

    def test_rerecorded_replay_trace_matches_original(self, recorded):
        _, log = recorded
        _, new_log = replay_simulation(log, record=True)
        assert new_log is not None
        assert new_log.pinned_streams == ("arrivals", "behaviour")
        assert first_divergence(log, new_log) is None

    def test_cross_scheme_replay_diverges(self, recorded):
        summary, log = recorded
        params = small_params(reputation_scheme="beta")
        replayed, new_log = replay_simulation(log, params=params, record=True)
        assert summary_digest(replayed) != summary_digest(summary)
        divergence = first_divergence(log, new_log)
        assert divergence is not None
        assert divergence.field == "state_digest"


class _PerturbAt:
    """A tracer that corrupts one reputation score at record index ``at``."""

    def __init__(self, at: int) -> None:
        self.at = at
        self._count = 0

    def on_setup(self, sim) -> None:
        self._count = 1  # setup is record 0; the next record is index 1

    def on_event(self, sim, event) -> None:
        self._tick(sim)

    def on_transaction(self, sim, now, outcome) -> None:
        self._tick(sim)

    def on_finalize(self, sim) -> None:
        pass

    def _tick(self, sim) -> None:
        if self._count == self.at:
            sim.store.set_reputation(0, 0.123456, sim.clock.now)
        self._count += 1


class TestBisector:
    PERTURB_AT = 57

    def test_single_event_perturbation_is_pinpointed(self, recorded):
        _, baseline = recorded
        sim = Simulation(small_params(), seed=9)
        # The perturber runs before the recorder at each hook, so the
        # corruption lands inside the digest of exactly one record.
        sim.attach_tracer(_PerturbAt(self.PERTURB_AT))
        recorder = TraceRecorder()
        sim.attach_tracer(recorder)
        sim.run()
        divergence = first_divergence(baseline, recorder.log)
        assert divergence is not None
        assert divergence.index == self.PERTURB_AT
        assert divergence.field == "state_digest"

    def test_identical_traces_have_no_divergence(self, recorded):
        _, log = recorded
        _, again = record_simulation(small_params(), seed=9)
        assert diff_traces(log, again) == []


class TestTraceSpec:
    def test_shorthands(self):
        spec = TraceSpec.parse({"record": "t.jsonl"})
        assert (spec.mode, spec.path) == ("record", "t.jsonl")
        spec = TraceSpec.parse({"replay": "t.jsonl"})
        assert (spec.mode, spec.path) == ("replay", "t.jsonl")

    def test_round_trip(self):
        spec = TraceSpec(
            mode="replay", path="a.jsonl", record_to="b.jsonl", digest_every=5
        )
        assert TraceSpec.parse(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            {"record": "a", "replay": "b"},
            {"record": "a", "mode": "record"},
            {"mode": "record"},
            {"record": "a", "bogus": 1},
            {"mode": "record", "path": "a", "record_to": "b"},
            {"mode": "replay", "path": "a", "digest_every": 0},
        ],
    )
    def test_invalid_specs_are_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            TraceSpec.parse(bad)


class TestTraceRequests:
    def test_recording_requires_single_repeat(self, tmp_path):
        with pytest.raises(ConfigurationError, match="repeats"):
            RunRequest(
                overrides=SMALL,
                repeats=2,
                trace={"record": str(tmp_path / "t.jsonl")},
            )

    def test_replay_rejects_scenario(self, trace_file):
        with pytest.raises(ConfigurationError, match="scenario"):
            RunRequest(scenario="tiny_test", trace={"replay": str(trace_file)})

    def test_missing_trace_gets_did_you_mean(self, trace_file):
        missing = trace_file.parent / "bsae.jsonl"
        with pytest.raises(UnknownNameError) as excinfo:
            RunRequest(trace={"replay": str(missing)})
        assert str(trace_file) in str(excinfo.value)

    def test_requests_round_trip_through_json(self, trace_file):
        request = RunRequest(scheme="beta", trace={"replay": str(trace_file)})
        restored = RunRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert restored == request
        assert restored.fingerprint() == request.fingerprint()

    def test_trace_facet_changes_the_fingerprint(self, tmp_path):
        plain = RunRequest(overrides=SMALL, seed=9)
        recording = RunRequest(
            overrides=SMALL, seed=9, trace={"record": str(tmp_path / "t.jsonl")}
        )
        assert plain.fingerprint() != recording.fingerprint()

    def test_replay_resolves_parameters_and_seed_from_the_trace(self, trace_file):
        request = RunRequest(trace={"replay": str(trace_file)})
        assert request.resolve() == small_params()
        assert request.seeds() == (9,)


class TestTraceService:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_replay_reproduces_recording_on_every_backend(
        self, backend, recorded, trace_file
    ):
        request = RunRequest(trace={"replay": str(trace_file)})
        jobs = 1 if backend == "serial" else 2
        with SimulationService(jobs=jobs) as service:
            assert service.backend == backend
            result = service.run(request)
        assert summary_digest(result.summary) == recorded[1].summary_digest

    def test_record_requests_bypass_the_run_cache(self, tmp_path):
        path = tmp_path / "t.jsonl"
        request = RunRequest(overrides=SMALL, seed=3, trace={"record": str(path)})
        with SimulationService(cache=tmp_path / "cache") as service:
            service.run(request)
            path.unlink()
            # A cache-served rerun would never rewrite the trace file.
            service.run(request)
        assert path.exists()

    def test_replay_with_record_to_produces_a_diffable_trace(
        self, tmp_path, recorded, trace_file
    ):
        replay_to = tmp_path / "beta.jsonl"
        request = RunRequest(
            scheme="beta",
            trace={
                "mode": "replay",
                "path": str(trace_file),
                "record_to": str(replay_to),
            },
        )
        with SimulationService() as service:
            service.run(request)
        divergences = diff_traces(recorded[1], TraceLog.load(replay_to), limit=1)
        assert divergences and divergences[0].field == "state_digest"


class TestStateDigest:
    def test_deterministic_across_runs(self):
        digests = []
        for _ in range(2):
            sim = Simulation(small_params(), seed=4)
            sim.run()
            digests.append(engine_state_digest(sim))
        assert digests[0] == digests[1]

    def test_sensitive_to_seed(self):
        digests = []
        for seed in (4, 5):
            sim = Simulation(small_params(), seed=seed)
            sim.run()
            digests.append(engine_state_digest(sim))
        assert digests[0] != digests[1]

    def test_sensitive_to_scheme(self):
        digests = []
        for scheme in ("rocq", "beta"):
            sim = Simulation(small_params(reputation_scheme=scheme), seed=4)
            sim.run()
            digests.append(engine_state_digest(sim))
        assert digests[0] != digests[1]
