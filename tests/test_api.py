"""Tests for the typed public facade (:mod:`repro.api`).

Covers the tentpole contracts of the service layer:

* ``RunRequest`` — registry validation at construction, JSON round-trips,
  fingerprint stability under field reordering;
* golden digests — the service path is bit-identical to each legacy path
  (direct ``run_simulation``, ``ParameterSweep.run``, the experiment
  runner) for equivalent requests, for any job count;
* ``RunHandle`` — progress determinism across job counts, cooperative
  cancellation;
* the unified catalogue — spans all four registries and matches them.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.adversary import available_adversaries
from repro.api import (
    CATALOGUE_SECTIONS,
    BatchResult,
    RunCancelledError,
    RunRequest,
    SimulationService,
    UnknownNameError,
    catalogue,
    summary_digest,
)
from repro.config import (
    ADVERSARY_STRATEGIES,
    REPUTATION_SCHEMES,
    AdversarySpec,
    SimulationParameters,
)
from repro.errors import ConfigurationError
from repro.experiments.runner import EXPERIMENTS, make_experiment
from repro.parallel import executor as executor_module
from repro.parallel.executor import create_executor, execute_spec
from repro.sim.engine import run_simulation
from repro.workloads.registry import available_scenarios, get_scenario
from repro.workloads.sweep import ParameterSweep, SweepPoint

#: A minuscule configuration so each simulation takes ~20 ms.
_TINY_OVERRIDES = {
    "num_initial_peers": 40,
    "num_transactions": 600,
    "arrival_rate": 0.02,
    "waiting_period": 100.0,
    "sample_interval": 200.0,
    "audit_transactions": 3,
}

TINY = SimulationParameters(seed=11, **_TINY_OVERRIDES)


def tiny_request(**changes) -> RunRequest:
    base = dict(overrides=_TINY_OVERRIDES, seed=11, label="tiny")
    base.update(changes)
    return RunRequest(**base)


# --------------------------------------------------------------------- #
# RunRequest validation and serialisation                                 #
# --------------------------------------------------------------------- #
class TestRunRequestValidation:
    def test_unknown_scenario_suggests_closest(self):
        with pytest.raises(UnknownNameError, match="did you mean 'tiny_test'"):
            RunRequest(scenario="tiny_tset")

    def test_unknown_scheme_suggests_closest(self):
        with pytest.raises(UnknownNameError, match="did you mean 'rocq'"):
            RunRequest(scheme="roqc")

    def test_scheme_aliases_canonicalise(self):
        assert RunRequest(scheme="tft").scheme == "tit_for_tat"

    def test_unknown_adversary_suggests_closest(self):
        with pytest.raises(UnknownNameError, match="did you mean 'sybil_swarm'"):
            RunRequest(adversary="sybil_swam")

    def test_adversary_accepts_name_and_mapping(self):
        by_name = RunRequest(adversary="slander")
        assert isinstance(by_name.adversary, AdversarySpec)
        by_mapping = RunRequest(adversary={"name": "slander", "count": 2})
        assert by_mapping.adversary.count == 2

    def test_unknown_override_field_suggests_closest(self):
        with pytest.raises(UnknownNameError, match="arrival_rate"):
            RunRequest(overrides={"arival_rate": 0.5})

    def test_reserved_overrides_are_rejected_with_guidance(self):
        for key, field in [
            ("seed", "seed"),
            ("reputation_scheme", "scheme"),
            ("adversary", "adversary"),
        ]:
            with pytest.raises(ConfigurationError, match=f"RunRequest.{field}"):
                RunRequest(overrides={key: 1})

    def test_invalid_override_value_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="arrival_rate"):
            RunRequest(overrides={"arrival_rate": -1.0})

    def test_scale_and_repeats_bounds(self):
        for scale in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="scale"):
                RunRequest(scale=scale)
        with pytest.raises(ConfigurationError, match="repeats"):
            RunRequest(repeats=0)

    def test_resolution_order_matches_legacy_composition(self):
        request = RunRequest(
            seed=7, scale=0.01, overrides={"arrival_rate": 0.05}, scheme="beta"
        )
        manual = (
            SimulationParameters(seed=7)
            .with_overrides(arrival_rate=0.05, reputation_scheme="beta")
            .scaled(0.01)
        )
        assert request.resolve() == manual


class TestRunRequestSerialisation:
    def test_json_round_trip(self):
        request = RunRequest(
            scenario="tiny_test",
            scheme="beta",
            adversary={"name": "slander", "count": 2},
            overrides={"arrival_rate": 0.05},
            scale=0.5,
            seed=3,
            repeats=2,
            label="rt",
        )
        restored = RunRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert restored == request
        assert restored.fingerprint() == request.fingerprint()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(UnknownNameError, match="request field"):
            RunRequest.from_dict({"scenari": "tiny_test"})

    def test_fingerprint_stable_under_field_reordering(self):
        document = RunRequest(
            scenario="tiny_test", overrides={"arrival_rate": 0.05}, seed=3
        ).to_dict()
        reordered = json.loads(
            json.dumps({key: document[key] for key in reversed(list(document))})
        )
        assert RunRequest.from_dict(reordered).fingerprint() == RunRequest.from_dict(
            document
        ).fingerprint()

    def test_fingerprint_insensitive_to_spelling_but_not_content(self):
        via_alias = RunRequest(scheme="tft", seed=5)
        via_canonical = RunRequest(scheme="tit_for_tat", seed=5)
        assert via_alias.fingerprint() == via_canonical.fingerprint()
        assert (
            RunRequest(scheme="beta", seed=5).fingerprint()
            != via_canonical.fingerprint()
        )
        assert (
            RunRequest(scheme="tit_for_tat", seed=6).fingerprint()
            != via_canonical.fingerprint()
        )

    def test_repeat_zero_uses_master_seed(self):
        request = tiny_request(repeats=3)
        seeds = request.seeds()
        assert seeds[0] == request.seed
        assert len(set(seeds)) == 3


# --------------------------------------------------------------------- #
# Golden digests: service vs legacy paths                                 #
# --------------------------------------------------------------------- #
class TestGoldenDigests:
    @pytest.mark.parametrize("backend,jobs", [("serial", 1), ("process", 2)])
    def test_service_matches_direct_run_simulation(self, backend, jobs):
        # The quickstart example's legacy path: run_simulation on resolved
        # parameters, with the master seed.
        request = tiny_request()
        legacy = run_simulation(TINY, seed=11)
        with SimulationService(jobs=jobs) as service:
            assert service.backend == backend
            result = service.run(request)
        assert result.backend == backend
        assert summary_digest(result.summary) == summary_digest(legacy)

    def test_service_matches_scenario_path(self):
        request = RunRequest(scenario="tiny_test", seed=5)
        legacy = run_simulation(get_scenario("tiny_test", seed=5), seed=5)
        with SimulationService() as service:
            result = service.run(request)
        assert summary_digest(result.summary) == summary_digest(legacy)

    def test_run_batch_matches_individual_runs(self):
        requests = [
            tiny_request(label=f"b{i}", overrides={**_TINY_OVERRIDES,
                                                   "arrival_rate": rate})
            for i, rate in enumerate((0.01, 0.03))
        ]
        with SimulationService(jobs=2) as service:
            batch = service.run_batch(requests)
        assert isinstance(batch, BatchResult)
        assert len(batch) == 2
        with SimulationService() as service:
            individual = [service.run(request) for request in requests]
        assert [r.digest() for r in batch] == [r.digest() for r in individual]

    def test_service_sweep_matches_legacy_sweep_run(self):
        # The introducer-economics example's legacy path: sweep.run() inline.
        def make_sweep():
            return ParameterSweep(
                name="api-equivalence",
                base=TINY,
                points=[
                    SweepPoint(label=f"r{rate:g}", x=rate,
                               overrides={"arrival_rate": rate})
                    for rate in (0.01, 0.03)
                ],
                repeats=1,
            )

        legacy = make_sweep().run()
        with SimulationService(jobs=2) as service:
            via_service = service.sweep(make_sweep())
        for label in ("r0.01", "r0.03"):
            assert [summary_digest(s) for s in via_service.summaries_at(label)] == [
                summary_digest(s) for s in legacy.summaries_at(label)
            ]

    @pytest.mark.parametrize("backend,jobs", [("serial", 1), ("process", 2)])
    def test_run_experiments_matches_legacy_experiment_path(self, backend, jobs):
        # The pre-service experiment path: instantiate the experiment with
        # its own executor.
        executor = create_executor(1)
        try:
            legacy = make_experiment(
                "figure1", scale=1.0, repeats=1, seed=11,
                base_params=TINY, executor=executor,
            ).run_and_validate()
        finally:
            executor.close()
        with SimulationService(jobs=jobs) as service:
            assert service.backend == backend
            via_service = service.run_experiments(
                scale=1.0, repeats=1, seed=11, only=["figure1"], base_params=TINY
            )
        assert json.dumps(
            via_service["figure1"].to_dict(), sort_keys=True
        ) == json.dumps(legacy.to_dict(), sort_keys=True)

    def test_run_experiments_unknown_id_still_raises_keyerror(self):
        with SimulationService() as service:
            with pytest.raises(KeyError, match="unknown experiment"):
                service.run_experiments(only=["figure99"], base_params=TINY)


# --------------------------------------------------------------------- #
# Service cache behaviour                                                 #
# --------------------------------------------------------------------- #
class TestServiceCache:
    def test_second_run_is_served_from_cache(self, tmp_path):
        request = tiny_request(repeats=2)
        with SimulationService(cache=tmp_path) as service:
            first = service.run(request)
            assert first.cache_hits == 0
        with SimulationService(cache=tmp_path) as service:
            second = service.run(request)
            assert second.cache_hits == 2
        assert first.digest() == second.digest()

    def test_run_batch_attributes_hits_per_request(self, tmp_path):
        requests = [
            tiny_request(label=f"c{i}", repeats=2,
                         overrides={**_TINY_OVERRIDES, "arrival_rate": rate})
            for i, rate in enumerate((0.01, 0.03))
        ]
        with SimulationService(cache=tmp_path) as service:
            service.run(requests[0])  # warm only the first request's repeats
        with SimulationService(cache=tmp_path) as service:
            batch = service.run_batch(requests)
        assert [result.cache_hits for result in batch] == [2, 0]

    def test_request_fingerprint_is_cache_stable(self):
        # Same content spelled differently → same fingerprint → same cache
        # identity for request-level memoisation.
        a = RunRequest(overrides={"arrival_rate": 0.05, "fraction_naive": 0.1})
        b = RunRequest(overrides={"fraction_naive": 0.1, "arrival_rate": 0.05})
        assert a.fingerprint() == b.fingerprint()


# --------------------------------------------------------------------- #
# RunHandle: progress + cancellation                                      #
# --------------------------------------------------------------------- #
class TestRunHandle:
    REQUEST_KW = dict(repeats=3)

    @pytest.mark.parametrize("backend,jobs", [("serial", 1), ("process", 2)])
    def test_progress_events_and_result_are_backend_invariant(self, backend, jobs):
        request = tiny_request(**self.REQUEST_KW)
        with SimulationService(jobs=jobs) as service:
            assert service.backend == backend
            handle = service.submit(request)
            result = handle.result(timeout=120)
        events = handle.progress()
        assert handle.done() and not handle.cancelled
        # The identity set is deterministic; completion order may not be.
        assert sorted((e.label, e.repeat, e.seed) for e in events) == [
            ("tiny", repeat, seed)
            for repeat, seed in enumerate(request.seeds())
        ]
        assert sorted(e.completed for e in events) == [1, 2, 3]
        assert all(e.total == 3 for e in events)
        # Bit-identical to the synchronous path:
        with SimulationService() as service:
            assert result.digest() == service.run(request).digest()

    def test_cancel_before_start_yields_no_result(self):
        request = tiny_request(repeats=4)
        with SimulationService() as service:
            handle = service.submit(request)
            handle.cancel()
            assert handle.wait(timeout=120)
        if handle.cancelled:
            with pytest.raises(RunCancelledError):
                handle.result()
            assert len(handle.progress()) < 4
        else:
            # The run beat the cancel flag; it must then be complete & valid.
            assert len(handle.progress()) == 4

    def test_cancel_mid_run_stops_remaining_repeats(self, monkeypatch):
        calls: list[int] = []
        entered, release = threading.Event(), threading.Event()

        def blocking_execute(spec):
            calls.append(spec.repeat)
            if len(calls) == 1:
                entered.set()
                assert release.wait(timeout=60)
            return execute_spec(spec)

        monkeypatch.setattr(executor_module, "execute_spec", blocking_execute)
        with SimulationService() as service:  # serial: deterministic ordering
            handle = service.submit(tiny_request(repeats=5))
            assert entered.wait(timeout=60)
            handle.cancel()
            release.set()
            assert handle.wait(timeout=120)
        assert handle.cancelled
        assert handle.cancel_requested
        # The serial executor checks the flag after every repeat: one ran.
        assert len(calls) == 1
        assert len(handle.progress()) == 1
        with pytest.raises(RunCancelledError):
            handle.result()

    def test_run_cancelled_while_queued_never_starts(
        self, monkeypatch, note_second_slot_arrival
    ):
        executed: list[str] = []
        entered, release = threading.Event(), threading.Event()

        def blocking_execute(spec):
            executed.append(spec.label)
            if spec.label == "first":
                entered.set()
                assert release.wait(timeout=60)
            return execute_spec(spec)

        monkeypatch.setattr(executor_module, "execute_spec", blocking_execute)
        with SimulationService() as service:  # one job: the second run queues
            queued = note_second_slot_arrival(service)
            first = service.submit(tiny_request(label="first"))
            assert entered.wait(timeout=60)
            second = service.submit(tiny_request(label="second"))
            assert queued.wait(timeout=60)
            second.cancel()
            release.set()
            assert first.wait(timeout=120) and second.wait(timeout=120)
        assert first.result().summaries
        assert executed == ["first"]
        assert second.cancelled and second.progress() == []
        with pytest.raises(RunCancelledError):
            second.result()

    @pytest.mark.parametrize("workflow", ["run_experiments", "sweep"])
    def test_experiments_and_sweeps_wait_for_the_one_job_slot(
        self, monkeypatch, note_second_slot_arrival, workflow
    ):
        lock = threading.Lock()
        running = [0]
        seen: list[int] = []
        entered, release = threading.Event(), threading.Event()

        def counting_execute(spec):
            with lock:
                running[0] += 1
                seen.append(running[0])
                if running[0] > 1:
                    queued.set()  # it did not wait: fail below, not by timeout
            try:
                if spec.label == "first":
                    entered.set()
                    assert release.wait(timeout=60)
                return execute_spec(spec)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(executor_module, "execute_spec", counting_execute)
        outcome: dict[str, object] = {}

        def simulate_beside(service: SimulationService) -> None:
            if workflow == "sweep":
                outcome["result"] = service.sweep(
                    ParameterSweep(
                        name="beside",
                        base=TINY,
                        points=[SweepPoint(label="r", x=0.01, overrides={})],
                        repeats=1,
                    )
                )
            else:
                outcome["result"] = service.run_experiments(
                    only=["figure1"], scale=0.002, repeats=1
                )

        with SimulationService() as service:  # one job: one simulation at a time
            queued = note_second_slot_arrival(service)
            first = service.submit(tiny_request(label="first"))
            assert entered.wait(timeout=60)
            beside = threading.Thread(target=simulate_beside, args=(service,))
            beside.start()
            assert queued.wait(timeout=60)
            release.set()
            assert first.wait(timeout=120)
            beside.join(timeout=300)
            assert not beside.is_alive()
        assert first.result().summaries
        assert outcome["result"]
        assert len(seen) > 1 and max(seen) == 1, seen

    def test_result_times_out_while_running(self):
        request = tiny_request(repeats=2)
        with SimulationService() as service:
            handle = service.submit(request)
            try:
                with pytest.raises(TimeoutError):
                    handle.result(timeout=0.0)
            finally:
                handle.wait(timeout=120)


# --------------------------------------------------------------------- #
# Catalogue                                                               #
# --------------------------------------------------------------------- #
class TestCatalogue:
    def test_sections_match_constant(self):
        assert tuple(catalogue()) == CATALOGUE_SECTIONS

    def test_spans_all_four_registries(self):
        sections = catalogue()
        assert set(sections["schemes"]) == set(REPUTATION_SCHEMES)
        assert set(sections["adversaries"]) == set(ADVERSARY_STRATEGIES)
        assert set(sections["scenarios"]) == set(available_scenarios())
        assert set(sections["experiments"]) == set(EXPERIMENTS)
        assert available_adversaries() == sections["adversaries"]

    def test_every_entry_has_a_description(self):
        for section, entries in catalogue().items():
            for name, description in entries.items():
                assert description, f"{section}/{name} lacks a description"

    def test_service_catalogue_matches_module_function(self):
        with SimulationService() as service:
            assert service.catalogue() == catalogue()
