"""Tests for the parallel execution subsystem (executors, cache, determinism)."""

from __future__ import annotations

import json
import random

import pytest

from repro.api import SimulationService
from repro.config import (
    ADVERSARY_STRATEGIES,
    REPUTATION_SCHEMES,
    AdversarySpec,
    SimulationParameters,
)
from repro.metrics.summary import RunSummary
from repro.parallel import (
    CACHE_VERSION,
    ProcessExecutor,
    RunCache,
    RunSpec,
    SerialExecutor,
    create_executor,
    execute_spec,
    params_fingerprint,
    run_specs,
)
from repro.workloads.sweep import ParameterSweep, SweepPoint

#: A minuscule configuration so each simulation takes ~50 ms.
TINY = SimulationParameters(
    num_initial_peers=40,
    num_transactions=800,
    arrival_rate=0.02,
    waiting_period=100.0,
    sample_interval=200.0,
    audit_transactions=3,
    seed=11,
)


def tiny_sweep(name: str = "tiny", repeats: int = 1) -> ParameterSweep:
    points = [
        SweepPoint(label=f"rate-{rate:g}", x=rate, overrides={"arrival_rate": rate})
        for rate in (0.01, 0.03)
    ]
    return ParameterSweep(name=name, base=TINY, points=points, repeats=repeats)


def canonical(summary) -> str:
    """NaN-safe comparable form of a RunSummary (JSON keeps NaN == NaN)."""
    document = summary.to_dict()
    document.pop("elapsed_seconds")  # wall clock differs per run
    return json.dumps(document, sort_keys=True)


def summary_dicts(result) -> list[str]:
    """Comparable forms of a SweepResult's summaries, in point order."""
    return [
        canonical(summary)
        for point in result.points
        for summary in result.summaries_at(point.label)
    ]


class TestCreateExecutor:
    def test_default_is_serial_for_one_job(self):
        assert isinstance(create_executor(1), SerialExecutor)

    def test_default_is_process_for_many_jobs(self):
        executor = create_executor(3)
        assert isinstance(executor, ProcessExecutor)
        assert executor.jobs == 3


class TestRunSpec:
    def test_fingerprint_depends_on_params_not_identity(self):
        a = SimulationParameters(seed=1)
        b = SimulationParameters(seed=1)
        c = SimulationParameters(seed=1, arrival_rate=0.5)
        assert params_fingerprint(a) == params_fingerprint(b)
        assert params_fingerprint(a) != params_fingerprint(c)

    def test_cache_key_varies_with_seed_and_version(self):
        assert RunCache.key_for(TINY, 1) != RunCache.key_for(TINY, 2)
        assert f"v{CACHE_VERSION}" in RunCache.key_for(TINY, 1)

    def test_fingerprint_changes_when_the_schema_gains_a_field(self):
        """Guard against silent cache reuse across schema changes.

        The fingerprint is computed over the full serialised parameter set,
        so *adding* a field to ``SimulationParameters`` — even one left at
        its default — must produce a different fingerprint; otherwise runs
        cached before the schema change would be served for configurations
        the old engine could not even express.
        """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class ExtendedParameters(SimulationParameters):
            hypothetical_new_knob: float = 0.0

        base = SimulationParameters(seed=1)
        extended = ExtendedParameters(seed=1)
        assert params_fingerprint(base) != params_fingerprint(extended)
        assert RunCache.key_for(base, 1) != RunCache.key_for(extended, 1)

    def test_reputation_scheme_participates_in_the_fingerprint(self):
        """Runs of different backends must never collide in the cache."""
        rocq = SimulationParameters(seed=1)
        beta = SimulationParameters(seed=1, reputation_scheme="beta")
        assert params_fingerprint(rocq) != params_fingerprint(beta)
        assert RunCache.key_for(rocq, 1) != RunCache.key_for(beta, 1)

    def test_describe_mentions_point_and_repeat(self):
        spec = RunSpec(
            params=TINY, seed=1, sweep="s", label="p", repeat=1, total_repeats=4
        )
        assert "[s]" in spec.describe()
        assert "point=p" in spec.describe()
        assert "repeat=2/4" in spec.describe()


class TestBackendDeterminism:
    def test_process_pool_matches_serial(self):
        sweep = tiny_sweep(repeats=2)
        serial = sweep.run()
        executor = ProcessExecutor(2)
        try:
            processed = sweep.run(executor=executor)
        finally:
            executor.close()
        assert summary_dicts(serial) == summary_dicts(processed)

    def test_run_experiments_matches_across_job_counts(self):
        with SimulationService(jobs=1) as service:
            serial = service.run_experiments(
                scale=1.0, repeats=1, seed=11, only=["figure1"], base_params=TINY
            )
        with SimulationService(jobs=4) as service:
            parallel = service.run_experiments(
                scale=1.0, repeats=1, seed=11, only=["figure1"], base_params=TINY
            )
        assert json.dumps(serial["figure1"].to_dict(), sort_keys=True) == json.dumps(
            parallel["figure1"].to_dict(), sort_keys=True
        )


class TestAdversaryDeterminismAcrossBackends:
    """Randomized property: any (adversary, scheme) cell is backend-invariant.

    Samples random cells of the scheme x attack grid — with randomized
    attack knobs — and asserts the serial and process executors produce
    bit-identical summaries at ``--jobs 4``.  This extends the
    parallel subsystem's determinism guarantee to the adversary subsystem:
    adversary randomness must come only from the seed-derived ``adversary``
    stream, never from process-local state.
    """

    #: Seeded sampler: the test is random but reproducible run to run.
    SAMPLES = 4

    @staticmethod
    def _random_cells() -> list[tuple[str, str, AdversarySpec]]:
        sampler = random.Random(20260729)
        cells = []
        for _ in range(TestAdversaryDeterminismAcrossBackends.SAMPLES):
            attack = sampler.choice(ADVERSARY_STRATEGIES)
            scheme = sampler.choice(REPUTATION_SCHEMES)
            spec = AdversarySpec(
                name=attack,
                count=sampler.randint(1, 4),
                start_time=float(sampler.randint(50, 200)),
                interval=float(sampler.randint(50, 200)),
            )
            cells.append((attack, scheme, spec))
        return cells

    def test_sampled_cells_are_bit_identical_across_executors(self):
        points = [
            SweepPoint(
                label=f"{scheme}|{attack}-{index}",
                x=float(index),
                overrides={"reputation_scheme": scheme, "adversary": spec},
            )
            for index, (attack, scheme, spec) in enumerate(self._random_cells())
        ]
        sweep = ParameterSweep(
            name="adversary-property", base=TINY, points=points, repeats=1
        )
        serial = sweep.run()
        executor = ProcessExecutor(4)
        try:
            processed = sweep.run(executor=executor)
        finally:
            executor.close()
        assert summary_dicts(serial) == summary_dicts(processed)


class TestRunCache:
    def test_roundtrip(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = tiny_sweep().build_specs()[0]
        summary = execute_spec(spec)
        cache.put(spec.params, spec.seed, summary)
        restored = cache.get(spec.params, spec.seed)
        assert restored is not None
        assert canonical(restored) == canonical(summary)

    def test_get_counts_hits_and_misses(self, tmp_path):
        cache = RunCache(tmp_path)
        assert cache.get(TINY, seed=5) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_corrupt_document_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        path = cache.store.path_for(cache.key_for(TINY, 5))
        path.write_text('{"params": {}}', encoding="utf-8")
        assert cache.get(TINY, seed=5) is None

    def test_sweep_second_run_is_all_hits(self, tmp_path):
        sweep = tiny_sweep(repeats=2)
        first_cache = RunCache(tmp_path)
        first = sweep.run(cache=first_cache)
        assert first_cache.hits == 0
        assert first_cache.misses == len(sweep.build_specs())
        second_cache = RunCache(tmp_path)
        second = sweep.run(cache=second_cache)
        assert second_cache.misses == 0
        assert second_cache.hits == len(sweep.build_specs())
        assert summary_dicts(first) == summary_dicts(second)

    def test_run_specs_mixes_cached_and_fresh(self, tmp_path):
        specs = tiny_sweep(repeats=2).build_specs()
        cache = RunCache(tmp_path)
        warm = run_specs(specs[:2], cache=cache)
        full = run_specs(specs, cache=cache)
        assert [canonical(s) for s in full[:2]] == [canonical(s) for s in warm]
        assert cache.hits == 2


class TestExperimentOrderAndReuse:
    def test_figure5_reuses_figure4_when_requested_after(self):
        with SimulationService() as service:
            results = service.run_experiments(
                scale=1.0,
                repeats=1,
                seed=11,
                only=["figure5", "figure4"],
                base_params=TINY,
            )
        assert list(results) == ["figure5", "figure4"]
        assert any("reused" in note for note in results["figure5"].notes)

    def test_figure5_hits_figure4_cache_across_invocations(self, tmp_path):
        with SimulationService(cache=RunCache(tmp_path)) as service:
            service.run_experiments(
                scale=1.0, repeats=1, seed=11, only=["figure4"], base_params=TINY
            )
        cache = RunCache(tmp_path)
        with SimulationService(cache=cache) as service:
            service.run_experiments(
                scale=1.0, repeats=1, seed=11, only=["figure5"], base_params=TINY
            )
        assert cache.misses == 0
        assert cache.hits > 0

    def test_unknown_id_raises(self):
        with SimulationService() as service:
            with pytest.raises(KeyError, match="unknown experiment"):
                service.run_experiments(only=["figure99"], base_params=TINY)


class TestRunSummarySerialisation:
    def test_from_dict_roundtrip(self):
        spec = tiny_sweep().build_specs()[0]
        summary = execute_spec(spec)
        restored = RunSummary.from_dict(summary.to_dict())
        assert canonical(restored) == canonical(summary)

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(KeyError):
            RunSummary.from_dict({"seed": 1})
