"""Durable reputation storage: drivers, checkpoint/restore, persist facet.

The conformance class is parametrised over every registered driver so a
postgres driver added later is held to exactly the same contract by adding
one fixture branch.
"""

from __future__ import annotations

import concurrent.futures
import json
import math

import pytest

from repro.analysis.storage import ResultStore
from repro.api import RunRequest
from repro.config import SimulationParameters
from repro.errors import ConfigurationError, PersistenceError
from repro.metrics.summary import RunSummary, summary_digest
from repro.parallel.cache import RunCache
from repro.parallel.executor import run_specs
from repro.reputation.backend import (
    available_schemes,
    backend_state_digest,
    make_reputation_backend,
)
from repro.sim.engine import Simulation
from repro.storage import (
    BackendPersistence,
    MemoryReputationStore,
    PeerRecord,
    PersistSpec,
    SqliteReputationStore,
    make_store,
    store_drivers,
)

TINY = SimulationParameters(
    num_initial_peers=20,
    num_transactions=300,
    arrival_rate=0.05,
    waiting_period=20.0,
    sample_interval=100.0,
    audit_transactions=5,
)


@pytest.fixture(params=sorted(store_drivers()))
def store(request, tmp_path):
    """One initialised store per registered driver (conformance axis)."""
    if request.param == "memory":
        built = make_store("memory://")
    elif request.param == "sqlite":
        built = make_store(f"sqlite://{tmp_path}/conformance.db")
    else:  # pragma: no cover - future drivers opt in here
        pytest.skip(f"no fixture branch for driver {request.param!r}")
    yield built
    built.close()


# --------------------------------------------------------------------- #
# Driver conformance (identical behaviour for every driver)               #
# --------------------------------------------------------------------- #
class TestStoreConformance:
    def test_initialize_is_idempotent(self, store):
        store.initialize()
        store.initialize()

    def test_state_round_trip_and_overwrite(self, store):
        payload = {"scheme": "rocq", "value": 0.1 + 0.2, "nested": {"a": [1, 2]}}
        store.save_state("k", "rocq", payload, digest="d1", saved_at=5.0)
        snapshot = store.load_state("k")
        assert snapshot.scheme == "rocq"
        assert snapshot.digest == "d1"
        assert snapshot.saved_at == 5.0
        # Bit-exact float round-trip is the whole persistence contract.
        assert snapshot.payload == payload
        store.save_state("k", "beta", {"scheme": "beta"}, digest="d2")
        again = store.load_state("k")
        assert (again.scheme, again.digest) == ("beta", "d2")

    def test_load_missing_state_is_none(self, store):
        assert store.load_state("nope") is None

    def test_state_keys_sorted_and_delete(self, store):
        for key in ("b", "a", "c"):
            store.save_state(key, "rocq", {"k": key})
        assert store.state_keys() == ["a", "b", "c"]
        assert store.delete_state("b") is True
        assert store.delete_state("b") is False
        assert store.state_keys() == ["a", "c"]

    def test_non_json_payload_rejected_identically(self, store):
        with pytest.raises(PersistenceError):
            store.save_state("bad", "rocq", {"x": float("nan")})
        with pytest.raises(PersistenceError):
            store.save_state("bad", "rocq", {"x": object()})
        assert store.load_state("bad") is None

    def test_init_peer_is_idempotent(self, store):
        assert store.init_peer("rocq", 7, 0.5) is True
        assert store.init_peer("rocq", 7, 0.9) is False
        assert store.get_peer("rocq", 7).score == 0.5

    def test_upsert_clamps_and_overwrites(self, store):
        store.upsert_peer("rocq", 1, 1.7, reports=3)
        store.upsert_peer("rocq", 2, -0.4)
        assert store.get_peer("rocq", 1).score == 1.0
        assert store.get_peer("rocq", 2).score == 0.0
        store.upsert_peer("rocq", 1, 0.25, reports=9, adjustments=2, updated_at=7.0)
        record = store.get_peer("rocq", 1)
        assert (record.score, record.reports, record.adjustments) == (0.25, 9, 2)
        assert record.updated_at == 7.0

    def test_list_peers_sorted_and_scheme_scoped(self, store):
        store.upsert_peers(
            "rocq",
            [PeerRecord("rocq", 5, 0.5), PeerRecord("rocq", 2, 0.2)],
        )
        store.upsert_peer("beta", 9, 0.9)
        assert [r.subject for r in store.list_peers("rocq")] == [2, 5]
        assert store.list_peers("unknown") == []
        assert store.peer_schemes() == ["beta", "rocq"]

    def test_get_missing_peer_is_none(self, store):
        assert store.get_peer("rocq", 404) is None


class TestMakeStore:
    def test_bare_path_and_url_open_the_same_sqlite_file(self, tmp_path):
        path = tmp_path / "store.db"
        with make_store(path) as first:
            assert isinstance(first, SqliteReputationStore)
            first.upsert_peer("rocq", 1, 0.5)
        with make_store(f"sqlite://{path}") as second:
            assert second.get_peer("rocq", 1).score == 0.5

    def test_memory_url_is_fresh_but_named_is_shared(self):
        assert make_store("memory://").load_state("k") is None
        shared = make_store("memory://test-shared-store")
        shared.save_state("k", "rocq", {"scheme": "rocq"})
        again = make_store("memory://test-shared-store")
        assert again is shared
        assert again.load_state("k") is not None
        # One holder closing its handle must not destroy shared state.
        again.close()
        assert make_store("memory://test-shared-store").load_state("k") is not None

    def test_unknown_driver_rejected(self):
        with pytest.raises(PersistenceError, match="unknown store driver"):
            make_store("postgres://not-yet")

    def test_memory_store_closed_after_close(self):
        plain = MemoryReputationStore()
        plain.close()
        with pytest.raises(PersistenceError, match="closed"):
            plain.state_keys()


# --------------------------------------------------------------------- #
# Backend checkpoint/restore (the acceptance criterion)                   #
# --------------------------------------------------------------------- #
class TestBackendRoundTrip:
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_sqlite_round_trip_is_digest_identical(self, scheme, tmp_path):
        """save → close → reopen → restore reproduces state_digest exactly."""
        params = TINY.with_overrides(reputation_scheme=scheme)
        sim = Simulation(params, seed=11)
        sim.run()
        digest = backend_state_digest(sim.store)
        path = tmp_path / f"{scheme}.db"
        with make_store(path) as store:
            BackendPersistence(store, key="cp").checkpoint(sim.store, time=1.0)
        with make_store(path) as store:
            fresh = Simulation(params, seed=999).store
            assert BackendPersistence(store, key="cp").restore(fresh) is True
            assert backend_state_digest(fresh) == digest
            peers = store.list_peers(scheme)
        assert peers, "checkpoint must populate the queryable peer table"
        assert all(0.0 <= record.score <= 1.0 for record in peers)

    def test_restore_without_snapshot_returns_false(self, tmp_path):
        with make_store(tmp_path / "empty.db") as store:
            backend = Simulation(TINY, seed=1).store
            assert BackendPersistence(store, key="cp").restore(backend) is False

    def test_restore_rejects_scheme_mismatch(self, tmp_path):
        rocq = Simulation(TINY, seed=11)
        rocq.run()
        with make_store(tmp_path / "mix.db") as store:
            persistence = BackendPersistence(store, key="cp")
            persistence.checkpoint(rocq.store)
            beta = Simulation(
                TINY.with_overrides(reputation_scheme="beta"), seed=1
            ).store
            with pytest.raises(PersistenceError, match="scheme"):
                persistence.restore(beta)

    def test_restore_rejects_tampered_payload(self, tmp_path):
        sim = Simulation(TINY, seed=11)
        sim.run()
        with make_store(tmp_path / "tamper.db") as store:
            persistence = BackendPersistence(store, key="cp")
            persistence.checkpoint(sim.store)
            snapshot = store.load_state("cp")
            payload = snapshot.payload
            payload["reports_delivered"] = payload["reports_delivered"] + 1
            store.save_state("cp", snapshot.scheme, payload, digest=snapshot.digest)
            fresh = Simulation(TINY, seed=999).store
            with pytest.raises(PersistenceError, match="not bit-identical"):
                persistence.restore(fresh)

    def test_log_backend_refuses_restore_onto_used_state(self):
        params = TINY.with_overrides(reputation_scheme="beta")
        sim = Simulation(params, seed=11)
        sim.run()
        payload = sim.store.export_state()
        with pytest.raises(PersistenceError, match="already processed"):
            sim.store.restore_state(payload)

    def test_memory_round_trip_matches_sqlite(self, tmp_path):
        """The two drivers persist byte-equal snapshot payloads."""
        sim = Simulation(TINY, seed=11)
        sim.run()
        memory = make_store("memory://")
        sqlite = make_store(tmp_path / "pair.db")
        for store in (memory, sqlite):
            BackendPersistence(store, key="cp").checkpoint(sim.store, time=2.0)
        left = memory.load_state("cp")
        right = sqlite.load_state("cp")
        assert json.dumps(left.payload, sort_keys=True) == json.dumps(
            right.payload, sort_keys=True
        )
        assert left.digest == right.digest
        memory.close()
        sqlite.close()


# --------------------------------------------------------------------- #
# Engine / request / cache wiring                                         #
# --------------------------------------------------------------------- #
class TestPersistFacet:
    def test_request_stamps_specs_and_runs_checkpoint(self, tmp_path):
        db = tmp_path / "run.db"
        request = RunRequest(
            seed=11,
            label="persisted",
            overrides={
                "num_initial_peers": 20,
                "num_transactions": 300,
                "arrival_rate": 0.05,
                "waiting_period": 20.0,
                "sample_interval": 100.0,
                "audit_transactions": 5,
            },
            persist=str(db),
        )
        (spec,) = request.specs()
        assert spec.persist_path == str(db)
        assert spec.persist_key == "run/persisted"
        run_specs([spec])
        with make_store(db) as store:
            assert store.state_keys() == ["run/persisted"]
            assert store.load_state("run/persisted").scheme == "rocq"
            assert store.list_peers("rocq")

    def test_persist_excluded_from_fingerprint(self, tmp_path):
        plain = RunRequest(seed=3)
        persisted = plain.with_updates(
            persist=PersistSpec(store=str(tmp_path / "x.db"))
        )
        assert plain.fingerprint() == persisted.fingerprint()

    def test_persist_spec_parse_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown persist"):
            PersistSpec.parse({"store": "x", "mode": "nope"})
        with pytest.raises(ConfigurationError, match="'store'"):
            PersistSpec.parse({"key": "only"})

    def test_persist_incompatible_with_repeats_and_trace(self, tmp_path):
        db = str(tmp_path / "x.db")
        with pytest.raises(ConfigurationError, match="repeats"):
            RunRequest(seed=1, repeats=2, persist=db)
        with pytest.raises(ConfigurationError, match="trace"):
            RunRequest(
                seed=1, trace={"record": str(tmp_path / "t.jsonl")}, persist=db
            )

    def test_persisted_specs_bypass_the_run_cache(self, tmp_path):
        db = tmp_path / "bypass.db"
        cache = RunCache(tmp_path / "cache")
        request = RunRequest(
            seed=11,
            overrides={"num_transactions": 300, "num_initial_peers": 20},
        )
        run_specs(request.specs(), cache=cache)  # warm the cache
        assert cache.misses == 1
        persisted = request.with_updates(persist=str(db))
        run_specs(persisted.specs(), cache=cache)
        # No hit was recorded and the checkpoint still happened: the cached
        # summary must never stand in for the state write.
        assert cache.hits == 0
        with make_store(db) as store:
            assert store.state_keys()

    def test_resume_restores_before_the_run(self, tmp_path):
        db = tmp_path / "resume.db"
        first = RunRequest(
            seed=11,
            label="leg",
            overrides={"num_transactions": 300, "num_initial_peers": 20},
            persist={"store": str(db), "key": "chain"},
        )
        run_specs(first.specs())
        with make_store(db) as store:
            saved = store.load_state("chain").digest
        # A resumed Simulation starts from exactly the checkpointed state.
        with make_store(db) as store:
            persistence = BackendPersistence(store, key="chain", resume=True)
            sim = Simulation(first.resolve(), seed=12, persistence=persistence)
            assert backend_state_digest(sim.store) == saved
            sim.run()
            final = store.load_state("chain")
        assert final.digest == backend_state_digest(sim.store)
        assert final.digest != saved


# --------------------------------------------------------------------- #
# Satellite regressions: strict JSON, atomic writes, racing cache puts    #
# --------------------------------------------------------------------- #
class TestStrictJsonStorage:
    def test_nan_summary_round_trips_through_run_cache(self, tmp_path):
        """A NaN metric survives save → strict-JSON null → load as NaN."""
        params = TINY.with_overrides(num_transactions=5)
        summary = Simulation(params, seed=11).run()
        summary.success_rate = float("nan")
        summary.total_rewards_paid = float("nan")
        summary.uncooperative_reputation.append(10_000.0, float("nan"))
        cache = RunCache(tmp_path)
        cache.put(params, 11, summary)
        text = (tmp_path / f"{cache.key_for(params, 11)}.json").read_text()
        assert "NaN" not in text  # strict JSON on disk
        loaded = cache.get(params, 11)
        assert loaded is not None
        assert math.isnan(loaded.success_rate)
        assert math.isnan(loaded.total_rewards_paid)
        assert math.isnan(loaded.uncooperative_reputation.values[-1])
        assert summary_digest(loaded) == summary_digest(summary)

    def test_failed_save_leaves_no_temp_file(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_json("good", {"ok": True})
        with pytest.raises(TypeError):
            store.save_json("bad", {"handle": object()})
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["good.json"], "failed write must not leak temp files"


def _hammer_cache_put(root: str, label: int) -> int:
    """Worker: repeatedly write this process's summary under the shared key."""
    params = _RACE_PARAMS
    summary = Simulation(params, seed=11).run()
    summary.success_rate = float(label)
    cache = RunCache(root)
    for _ in range(40):
        cache.put(params, 11, summary)
    return label


_RACE_PARAMS = SimulationParameters(
    num_initial_peers=10, num_transactions=20, sample_interval=100.0
)


class TestConcurrentCachePut:
    def test_racing_puts_never_expose_a_torn_document(self, tmp_path):
        """Two processes hammer one (params, seed) key; readers always see a
        complete document equal to one writer's version (last-writer-wins)."""
        cache = RunCache(tmp_path)
        name = cache.key_for(_RACE_PARAMS, 11)
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(_hammer_cache_put, str(tmp_path), label)
                for label in (1, 2)
            ]
            observed = set()
            while not all(future.done() for future in futures):
                loaded = cache.get(_RACE_PARAMS, 11)
                if loaded is not None:
                    # Atomic replace: a torn file would fail to parse (get
                    # would miss) or carry a rate belonging to no writer.
                    assert loaded.success_rate in (1.0, 2.0)
                    observed.add(loaded.success_rate)
            assert {future.result() for future in futures} == {1, 2}
        final = cache.get(_RACE_PARAMS, 11)
        assert final is not None and final.success_rate in (1.0, 2.0)
        leftovers = [p.name for p in tmp_path.iterdir() if ".tmp-" in p.name]
        assert leftovers == []
        assert (tmp_path / f"{name}.json").exists()


# --------------------------------------------------------------------- #
# Export/restore unit details                                             #
# --------------------------------------------------------------------- #
class TestExportPayloads:
    def test_rocq_export_drops_derived_caches(self, store_with_ring):
        store_with_ring.set_reputation(3, 0.8, time=1.0)
        payload = store_with_ring.export_state()
        assert payload["scheme"] == "rocq"
        assert all(isinstance(key, str) for key in payload["managers"])
        fresh = type(store_with_ring)(assignment=store_with_ring.assignment)
        fresh.restore_state(payload)
        assert fresh.state_digest() == store_with_ring.state_digest()
        assert fresh.global_reputation(3) == store_with_ring.global_reputation(3)

    def test_log_export_skips_zero_count_entries(self):
        params = SimulationParameters(reputation_scheme="beta")
        backend = make_reputation_backend(params, assignment=None)
        backend.system.record_interaction(1, 2, satisfied=True)
        # A defaultdict read artefact: zero count, must not be exported.
        assert backend.system.log.positive[(9, 9)] == 0
        payload = backend.export_state()
        assert payload["positive"] == [[1, 2, 1]]
        assert payload["negative"] == []
        fresh = make_reputation_backend(params, assignment=None)
        fresh.restore_state(payload)
        assert fresh.state_digest() == backend.state_digest()
