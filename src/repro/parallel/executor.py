"""Executor backends that run batches of :class:`RunSpec`.

Three interchangeable backends are provided:

``serial``
    Runs every spec inline, in order — the reference behaviour.
``thread``
    A :class:`concurrent.futures.ThreadPoolExecutor`.  The simulation kernel
    is pure Python, so threads mostly help when something else (I/O, a future
    native kernel) releases the GIL; the backend exists so callers can trade
    memory for isolation without paying process start-up costs.
``process``
    A :class:`concurrent.futures.ProcessPoolExecutor`; the backend that
    actually scales sweeps across cores.

Every backend returns results in *spec order*, whatever order the runs
finished in, and each spec carries its own derived seed — so results are
bit-identical across backends and job counts.
"""

from __future__ import annotations

import os
from concurrent import futures
from typing import Callable, Sequence

from ..metrics.summary import RunSummary
from ..sim.engine import run_simulation
from .cache import RunCache
from .specs import RunSpec

__all__ = [
    "BACKENDS",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "create_executor",
    "execute_spec",
    "run_specs",
]

#: Names accepted by :func:`create_executor` (and the CLI ``--backend`` flag).
BACKENDS = ("serial", "thread", "process")

ProgressFn = Callable[[str], None]
ResultFn = Callable[[int, RunSummary], None]


def execute_spec(spec: RunSpec) -> RunSummary:
    """Run the simulation a spec describes.

    Module-level (not a method) so the process backend can pickle a reference
    to it for worker processes.  Specs carrying a trace facet dispatch to the
    trace engine (imported lazily — tracing is the exception, not the rule);
    recording/replaying works identically on every backend because the trace
    file lives on the shared filesystem, not in worker memory.
    """
    if spec.trace_mode == "record":
        from ..trace import record_simulation

        assert spec.trace_path is not None
        summary, log = record_simulation(
            spec.params, seed=spec.seed, digest_every=spec.trace_digest_every
        )
        log.save(spec.trace_path)
        return summary
    if spec.trace_mode == "replay":
        from ..trace import TraceLog, replay_simulation

        assert spec.trace_path is not None
        log = TraceLog.load(spec.trace_path)
        summary, new_log = replay_simulation(
            log,
            params=spec.params,
            seed=spec.seed,
            record=spec.trace_record_to is not None,
            digest_every=spec.trace_digest_every,
        )
        if new_log is not None:
            assert spec.trace_record_to is not None
            new_log.save(spec.trace_record_to)
        return summary
    if spec.persist_path is not None:
        # Durable persistence (imported lazily, like tracing).  The store is
        # opened per spec execution — sqlite in WAL mode arbitrates between
        # pool workers hitting the same file, and ``memory://name`` URLs
        # resolve to the process-shared instance for in-process executors.
        from ..storage import BackendPersistence, make_store

        store = make_store(spec.persist_path)
        try:
            persistence = BackendPersistence(
                store,
                key=spec.persist_key or "",
                resume=spec.persist_resume,
            )
            return run_simulation(
                spec.params, seed=spec.seed, persistence=persistence
            )
        finally:
            store.close()
    return run_simulation(spec.params, seed=spec.seed)


class Executor:
    """Executes batches of specs; subclasses choose the concurrency model."""

    backend: str = "abstract"
    jobs: int = 1

    def map_specs(
        self,
        specs: Sequence[RunSpec],
        progress: ProgressFn | None = None,
        on_result: ResultFn | None = None,
    ) -> list[RunSummary]:
        """Run every spec and return the summaries in spec order.

        ``on_result`` (if given) is invoked in the calling process with
        ``(index, summary)`` as each run completes — in completion order,
        not spec order — so callers can persist results incrementally.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any pooled workers (no-op for stateless executors)."""

    def prepare(self) -> None:
        """Eagerly create any worker pool (no-op for stateless executors).

        Pooled backends create their pool lazily on first use; callers that
        will issue :meth:`map_specs` from several threads (the service layer's
        :class:`~repro.api.handle.RunHandle`) call this once up front so the
        lazy creation never races.
        """


class SerialExecutor(Executor):
    """Runs specs inline, one after the other."""

    backend = "serial"

    def map_specs(
        self,
        specs: Sequence[RunSpec],
        progress: ProgressFn | None = None,
        on_result: ResultFn | None = None,
    ) -> list[RunSummary]:
        results: list[RunSummary] = []
        for index, spec in enumerate(specs):
            if progress is not None:
                progress(spec.describe())
            summary = execute_spec(spec)
            if on_result is not None:
                on_result(index, summary)
            results.append(summary)
        return results


class _PoolExecutor(Executor):
    """Shared submit/collect logic for the thread and process backends.

    The underlying worker pool is created lazily on first use and reused
    across :meth:`map_specs` calls, so a whole multi-experiment invocation
    pays worker start-up (interpreter spawn, imports) only once.  Call
    :meth:`close` — or rely on interpreter exit — to release the workers.
    """

    def __init__(self, jobs: int | None = None) -> None:
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self._pool: futures.Executor | None = None

    def _make_pool(self) -> futures.Executor:
        raise NotImplementedError

    def _get_pool(self) -> futures.Executor:
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def prepare(self) -> None:
        self._get_pool()

    def close(self) -> None:
        if self._pool is not None:
            # cancel_futures drops queued work so an error path (run_all's
            # finally) is not stalled behind the rest of an abandoned sweep.
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def map_specs(
        self,
        specs: Sequence[RunSpec],
        progress: ProgressFn | None = None,
        on_result: ResultFn | None = None,
    ) -> list[RunSummary]:
        if not specs:
            return []
        results: list[RunSummary | None] = [None] * len(specs)
        pool = self._get_pool()
        index_of = {
            pool.submit(execute_spec, spec): index
            for index, spec in enumerate(specs)
        }
        done = 0
        try:
            for future in futures.as_completed(index_of):
                index = index_of[future]
                summary = future.result()
                results[index] = summary
                if on_result is not None:
                    on_result(index, summary)
                done += 1
                if progress is not None:
                    progress(f"{specs[index].describe()} done ({done}/{len(specs)})")
        except BaseException:
            for future in index_of:
                future.cancel()
            raise
        return results  # type: ignore[return-value]  # every slot filled above


class ThreadExecutor(_PoolExecutor):
    """Runs specs on a thread pool."""

    backend = "thread"

    def _make_pool(self) -> futures.Executor:
        return futures.ThreadPoolExecutor(max_workers=self.jobs)


class ProcessExecutor(_PoolExecutor):
    """Runs specs on a process pool — one simulation per worker at a time."""

    backend = "process"

    def _make_pool(self) -> futures.Executor:
        return futures.ProcessPoolExecutor(max_workers=self.jobs)


def create_executor(backend: str | None = None, jobs: int = 1) -> Executor:
    """Build an executor from a backend name and a job count.

    ``backend=None`` picks ``serial`` for ``jobs <= 1`` and ``process``
    otherwise, which is what the experiment CLI exposes as ``--jobs N``.
    """
    if backend is None:
        backend = "serial" if jobs <= 1 else "process"
    if backend == "serial":
        return SerialExecutor()
    if backend == "thread":
        return ThreadExecutor(jobs)
    if backend == "process":
        return ProcessExecutor(jobs)
    raise ValueError(f"unknown executor backend {backend!r}; known: {BACKENDS}")


def run_specs(
    specs: Sequence[RunSpec],
    executor: Executor | None = None,
    cache: RunCache | None = None,
    progress: ProgressFn | None = None,
    on_result: ResultFn | None = None,
    on_cache_hit: ResultFn | None = None,
) -> list[RunSummary]:
    """Run a batch of specs through ``executor``, consulting ``cache`` first.

    Cache lookups and stores happen in the calling process, so the cache
    needs no cross-process coordination; only cache misses are submitted to
    the executor, and each miss is persisted the moment it completes — an
    interrupted sweep keeps every run that finished.  Results come back in
    spec order.

    ``on_result`` (if given) is invoked in the calling process with the
    batch index and summary of every run — cache hits at lookup time,
    computed runs as they complete.  An exception raised from it aborts the
    batch (pooled backends cancel their still-queued work), which is how the
    service layer implements cooperative cancellation.  ``on_cache_hit``
    (if given) is additionally invoked — before ``on_result`` — for runs
    served from the cache, so callers can attribute hits per spec without
    relying on the cache's shared counters.
    """
    if executor is None:
        executor = SerialExecutor()
    results: list[RunSummary | None] = [None] * len(specs)
    pending: list[RunSpec] = []
    pending_indices: list[int] = []
    for index, spec in enumerate(specs):
        # Traced specs bypass the cache entirely: a cache-served "recording"
        # would never write its trace file, and a cache-served replay would
        # mask what the replay actually produced.  Persisted specs bypass it
        # as well: the checkpoint into the durable store is the point of the
        # run, and a cache hit would skip the state write.
        if cache is not None and spec.trace_mode is None and spec.persist_path is None:
            cached = cache.get(spec.params, spec.seed)
            if cached is not None:
                if progress is not None:
                    progress(f"{spec.describe()} (cached)")
                results[index] = cached
                if on_cache_hit is not None:
                    on_cache_hit(index, cached)
                if on_result is not None:
                    on_result(index, cached)
                continue
        pending.append(spec)
        pending_indices.append(index)

    def store_result(pending_index: int, summary: RunSummary) -> None:
        spec = pending[pending_index]
        if cache is not None and spec.trace_mode is None and spec.persist_path is None:
            cache.put(spec.params, spec.seed, summary)
        if on_result is not None:
            on_result(pending_indices[pending_index], summary)

    computed = executor.map_specs(pending, progress=progress, on_result=store_result)
    for index, summary in zip(pending_indices, computed):
        results[index] = summary
    return results  # type: ignore[return-value]  # every slot filled above
