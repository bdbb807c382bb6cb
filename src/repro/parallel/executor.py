"""Executors that run batches of :class:`RunSpec`.

The job count picks the executor (:func:`create_executor`):

``SerialExecutor``
    One job: every spec runs inline, in order — the reference behaviour.
``ProcessExecutor``
    N jobs: a :class:`concurrent.futures.ProcessPoolExecutor` with N
    workers, which is what scales sweeps across cores.

Both return results in *spec order*, whatever order the runs finished in,
and each spec carries its own derived seed — so results are bit-identical
across job counts.
"""

from __future__ import annotations

from concurrent import futures
from typing import Callable, Sequence

from ..errors import ConfigurationError
from ..metrics.summary import RunSummary
from ..sim.engine import run_simulation
from .cache import RunCache
from .specs import RunSpec

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "create_executor",
    "execute_spec",
    "run_specs",
]

ProgressFn = Callable[[str], None]
ResultFn = Callable[[int, RunSummary], None]


def execute_spec(spec: RunSpec) -> RunSummary:
    """Run the simulation a spec describes.

    Module-level (not a method) so the process executor can pickle a
    reference to it for worker processes.  Specs carrying a trace facet
    dispatch to the trace engine (imported lazily — tracing is the
    exception, not the rule); recording/replaying works identically in a
    worker because the trace file lives on the shared filesystem, not in
    worker memory.
    """
    trace = spec.trace
    if trace is not None and trace.mode == "record":
        from ..trace import record_simulation

        summary, log = record_simulation(
            spec.params, seed=spec.seed, digest_every=trace.digest_every
        )
        log.save(trace.path)
        return summary
    if trace is not None:
        from ..trace import TraceLog, replay_simulation

        summary, new_log = replay_simulation(
            TraceLog.load(trace.path),
            params=spec.params,
            seed=spec.seed,
            record=trace.record_to is not None,
            digest_every=trace.digest_every,
        )
        if new_log is not None:
            new_log.save(trace.record_to)
        return summary
    persist = spec.persist
    if persist is not None:
        # Durable persistence (imported lazily, like tracing).  The store is
        # opened per spec execution — WAL mode arbitrates between pool
        # workers hitting the same database file, and a ``memory://name``
        # URL resolves to the in-memory database the caller's process also
        # sees (so only inline runs may use it; see ProcessExecutor).
        from ..storage import BackendPersistence, make_store

        store = make_store(persist.store)
        try:
            persistence = BackendPersistence(
                store, key=persist.key or "", resume=persist.resume
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

        The process executor creates its pool lazily on first use; callers
        that will issue :meth:`map_specs` from several threads (the service
        layer's :class:`~repro.api.handle.RunHandle`) call this once up
        front so the lazy creation never races.
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


class ProcessExecutor(Executor):
    """Runs specs on a process pool — one simulation per worker at a time.

    Workers are started by ``spawn``, never ``fork``: the pool is built
    inside processes that already run threads (``repro serve``'s event loop,
    each run handle's thread, ``asyncio.to_thread``), and a child forked
    while another thread holds a lock can deadlock.  A spawned worker starts
    from a fresh interpreter, so everything it needs reaches it pickled,
    which :func:`execute_spec` and :class:`RunSpec` already are.  It also
    imports the main script of the process that built the pool, so a
    script that uses more than one job must guard its entry point with
    ``if __name__ == "__main__":``; without the guard each worker tries to
    start a pool of its own and the caller gets ``BrokenProcessPool``.

    The pool is created lazily on first use and reused across
    :meth:`map_specs` calls, so a whole multi-experiment invocation pays
    worker start-up (interpreter spawn, imports) only once.  Call
    :meth:`close` — or rely on interpreter exit — to release the workers.
    """

    backend = "process"

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, jobs)
        self._pool: futures.ProcessPoolExecutor | None = None

    def _get_pool(self) -> futures.ProcessPoolExecutor:
        if self._pool is None:
            # Imported with the first pool, as concurrent.futures imports its
            # process pool: a process that never builds one (``repro serve``
            # with one job) does not pay for the import at start-up.
            import multiprocessing

            self._pool = futures.ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("spawn"),
            )
        return self._pool

    def prepare(self) -> None:
        self._get_pool()

    def close(self) -> None:
        if self._pool is not None:
            # cancel_futures drops queued work so an error path is not
            # stalled behind the rest of an abandoned sweep.
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
        for spec in specs:
            if spec.persist is not None and spec.persist.store.startswith("memory://"):
                raise ConfigurationError(
                    f"persist store {spec.persist.store!r} is in-memory, so a "
                    "worker process would checkpoint into its own copy and the "
                    "state would be lost; run with jobs=1 or persist to a "
                    "sqlite store"
                )
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


def create_executor(jobs: int = 1) -> Executor:
    """The executor for ``jobs``: inline for one, N worker processes for N."""
    return SerialExecutor() if jobs <= 1 else ProcessExecutor(jobs)


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
    batch (the process executor cancels its still-queued work), which is how
    the service layer implements cooperative cancellation.  ``on_cache_hit``
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
        if cache is not None and spec.trace is None and spec.persist is None:
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
        if cache is not None and spec.trace is None and spec.persist is None:
            cache.put(spec.params, spec.seed, summary)
        if on_result is not None:
            on_result(pending_indices[pending_index], summary)

    computed = executor.map_specs(pending, progress=progress, on_result=store_result)
    for index, summary in zip(pending_indices, computed):
        results[index] = summary
    return results  # type: ignore[return-value]  # every slot filled above
