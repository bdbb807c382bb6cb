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
from ..metrics.summary import RunSummary, tx_per_sec
from ..sim.engine import run_simulation
from .cache import RunCache
from .specs import RunSpec

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "create_executor",
    "execute_spec",
    "progress_line",
    "run_specs",
]

ProgressFn = Callable[[str], None]
ResultFn = Callable[[int, RunSummary], None]
FinishFn = Callable[[int, RunSummary, bool], None]


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
        self, specs: Sequence[RunSpec], on_result: ResultFn | None = None
    ) -> list[RunSummary]:
        """Run every spec and return the summaries in spec order.

        ``on_result`` (if given) is invoked on the calling thread with
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
        self, specs: Sequence[RunSpec], on_result: ResultFn | None = None
    ) -> list[RunSummary]:
        results: list[RunSummary] = []
        for index, spec in enumerate(specs):
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
        self, specs: Sequence[RunSpec], on_result: ResultFn | None = None
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
        try:
            for future in futures.as_completed(index_of):
                index = index_of[future]
                summary = future.result()
                results[index] = summary
                if on_result is not None:
                    on_result(index, summary)
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
    on_result: FinishFn | None = None,
) -> list[RunSummary]:
    """Run a batch of specs through ``executor``, consulting ``cache`` first.

    Cache lookups and stores happen in the calling process, so the cache
    needs no cross-process coordination; only cache misses are submitted to
    the executor, and each miss is persisted the moment it completes — an
    interrupted sweep keeps every run that finished.  Results come back in
    spec order.

    Every run finishes in one place, on the calling thread: cache hits at
    lookup, computed runs as they complete.  Finishing prints the run's
    :func:`progress_line` through ``progress`` (if given), then calls
    ``on_result(index, summary, cached)`` (if given).  An exception raised
    from either aborts the batch (the process executor cancels its
    still-queued work), which is how the service layer implements
    cooperative cancellation.
    """
    if executor is None:
        executor = SerialExecutor()
    results: list[RunSummary | None] = [None] * len(specs)
    finished = 0

    def finish(index: int, summary: RunSummary, cached: bool) -> None:
        nonlocal finished
        finished += 1
        results[index] = summary
        if progress is not None:
            progress(
                progress_line(specs[index], summary, finished, len(specs), cached)
            )
        if on_result is not None:
            on_result(index, summary, cached)

    # Traced specs bypass the cache entirely: a cache-served "recording"
    # would never write its trace file, and a cache-served replay would mask
    # what the replay actually produced.  Persisted specs bypass it as well:
    # the checkpoint into the durable store is the point of the run, and a
    # cache hit would skip the state write.
    def cacheable(spec: RunSpec) -> bool:
        return cache is not None and spec.trace is None and spec.persist is None

    pending: list[int] = []
    for index, spec in enumerate(specs):
        hit = cache.get(spec.params, spec.seed) if cacheable(spec) else None
        if hit is not None:
            finish(index, hit, True)
        else:
            pending.append(index)

    def computed(pending_index: int, summary: RunSummary) -> None:
        index = pending[pending_index]
        spec = specs[index]
        if cacheable(spec):
            cache.put(spec.params, spec.seed, summary)
        finish(index, summary, False)

    executor.map_specs([specs[index] for index in pending], on_result=computed)
    return results  # type: ignore[return-value]  # every slot filled above


def progress_line(
    spec: RunSpec, summary: RunSummary, finished: int, total: int, cached: bool
) -> str:
    """The line reporting that ``spec`` finished, ``finished`` of ``total``."""
    head = f"{spec.describe()} done ({finished}/{total})"
    if cached:
        return f"{head}, cached"
    rate = tx_per_sec([summary])
    throughput = "n/a" if rate is None else f"{rate:,.0f} tx/s"
    return f"{head} in {summary.elapsed_seconds:.2f}s, {throughput}"
