""":class:`SimulationService` — the one front door for running simulations.

The service owns the things every entry point used to hand-wire for itself:
executor selection (``serial``/``thread``/``process`` via
:func:`repro.parallel.executor.create_executor`), the persistent
:class:`~repro.parallel.cache.RunCache`, and the unified registry
:func:`~repro.api.catalogue.catalogue`.  On top of those it offers every
workflow the repo has grown:

* :meth:`run` / :meth:`run_batch` — execute :class:`RunRequest` objects
  (the quickstart/bootstrap-policies path);
* :meth:`submit` — the same, asynchronously, returning a
  :class:`~repro.api.handle.RunHandle` with progress and cancellation;
* :meth:`sweep` — run a :class:`~repro.workloads.sweep.ParameterSweep` on
  the service's executor and cache (the introducer-economics path);
* :meth:`run_experiments` — the experiment orchestration that used to live
  in ``repro.experiments.runner.run_all`` (which is now a thin wrapper);
* :meth:`bench` — the hot-path benchmark suite (always inline: timings
  taken beside other simulations would measure the contention).

Results are bit-identical to the legacy entry points for equivalent inputs,
across every backend and job count — golden-digest tests pin this.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from ..analysis.storage import ResultStore
from ..config import SimulationParameters
from ..parallel.cache import RunCache
from ..parallel.executor import Executor, create_executor, run_specs
from ..workloads.sweep import ParameterSweep, SweepResult
from .catalogue import catalogue as build_catalogue
from .handle import ProgressEvent, RunHandle
from .request import RunRequest
from .results import BatchResult, RunResult

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..experiments.base import ExperimentResult

__all__ = ["SimulationService"]

ProgressFn = Callable[[str], None]


class SimulationService:
    """A configured simulation runner: executor + run cache + catalogue.

    Parameters
    ----------
    jobs:
        Simulations to run concurrently (1 = serial).
    backend:
        Executor backend name (``serial``/``thread``/``process``); ``None``
        picks serial for ``jobs <= 1`` and process otherwise, exactly like
        the CLI's ``--jobs`` flag always has.
    cache:
        Optional persistent run cache — a :class:`RunCache` or a directory
        path one is created over.  Cached (params, seed) runs are never
        re-simulated, by any workflow the service executes.

    The service is a context manager; leaving the context releases the
    worker pool.  One service can execute any number of requests, batches,
    sweeps and experiment suites, amortising worker start-up across them.
    """

    def __init__(
        self,
        jobs: int = 1,
        backend: str | None = None,
        cache: RunCache | Path | str | None = None,
    ) -> None:
        self._executor: Executor = create_executor(backend, jobs)
        if cache is not None and not isinstance(cache, RunCache):
            cache = RunCache(cache)
        self._cache = cache
        # The pooled backends bound concurrent work by their worker count;
        # the serial backend has no pool, so concurrently submitted handles
        # take this lock to honour its one-at-a-time budget.
        self._serial_lock: threading.Lock | None = (
            threading.Lock() if self._executor.backend == "serial" else None
        )

    # ------------------------------------------------------------------ #
    # Introspection                                                        #
    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> str:
        """Name of the executor backend the service runs on."""
        return self._executor.backend

    @property
    def jobs(self) -> int:
        """Concurrent simulations the executor allows."""
        return self._executor.jobs

    @property
    def cache(self) -> RunCache | None:
        """The run cache, or ``None`` when caching is off."""
        return self._cache

    def catalogue(self) -> dict[str, dict[str, str]]:
        """Every registry as ``section → {name: description}``."""
        return build_catalogue()

    # ------------------------------------------------------------------ #
    # Requests                                                             #
    # ------------------------------------------------------------------ #
    def run(
        self, request: RunRequest, progress: ProgressFn | None = None
    ) -> RunResult:
        """Execute ``request`` synchronously and return its result."""
        return self._execute(request, progress=progress)

    def run_batch(
        self,
        requests: Iterable[RunRequest],
        progress: ProgressFn | None = None,
    ) -> BatchResult:
        """Execute several requests as one executor batch.

        All repeats of all requests are submitted together, so a parallel
        backend overlaps work *across* requests — yet each result is
        bit-identical to running its request alone.
        """
        requests = tuple(requests)
        all_specs = []
        extents: list[tuple[int, int]] = []
        for request in requests:
            specs = request.specs()
            extents.append((len(all_specs), len(specs)))
            all_specs.extend(specs)
        hit_indices: set[int] = set()
        summaries = run_specs(
            all_specs,
            executor=self._executor,
            cache=self._cache,
            progress=progress,
            on_cache_hit=lambda index, summary: hit_indices.add(index),
        )
        results = []
        for request, (start, count) in zip(requests, extents):
            results.append(
                RunResult(
                    request=request,
                    params=all_specs[start].params,
                    summaries=tuple(summaries[start : start + count]),
                    backend=self.backend,
                    cache_hits=sum(
                        1 for index in range(start, start + count)
                        if index in hit_indices
                    ),
                )
            )
        return BatchResult(results=tuple(results))

    def submit(
        self,
        request: RunRequest,
        on_event: Callable[[ProgressEvent], None] | None = None,
    ) -> RunHandle:
        """Execute ``request`` on a background thread; returns at once.

        The returned :class:`RunHandle` reports one event per completed
        repeat and supports cooperative cancellation.  Handles share the
        service's executor (and worker pool), so several submissions
        interleave on the same ``jobs`` budget.
        """
        self._executor.prepare()
        handle = RunHandle(
            request,
            runner=lambda h: self._execute(request, handle=h),
            on_event=on_event,
        )
        handle._start()
        return handle

    def _execute(
        self,
        request: RunRequest,
        progress: ProgressFn | None = None,
        handle: RunHandle | None = None,
    ) -> RunResult:
        specs = request.specs()
        total = len(specs)
        on_result = None
        if handle is not None:
            handle._check_cancelled()
            lock = threading.Lock()
            completed = [0]

            def on_result(index: int, summary: Any) -> None:
                with lock:
                    completed[0] += 1
                    count = completed[0]
                spec = specs[index]
                handle._record(
                    ProgressEvent(
                        label=spec.label,
                        repeat=spec.repeat,
                        seed=spec.seed,
                        completed=count,
                        total=total,
                    )
                )

        hit_indices: set[int] = set()
        if self._serial_lock is not None:
            self._serial_lock.acquire()
        try:
            summaries = run_specs(
                specs,
                executor=self._executor,
                cache=self._cache,
                progress=progress,
                on_result=on_result,
                on_cache_hit=lambda index, summary: hit_indices.add(index),
            )
        finally:
            if self._serial_lock is not None:
                self._serial_lock.release()
        return RunResult(
            request=request,
            params=specs[0].params,
            summaries=tuple(summaries),
            backend=self.backend,
            cache_hits=len(hit_indices),
        )

    # ------------------------------------------------------------------ #
    # Sweeps and experiments                                               #
    # ------------------------------------------------------------------ #
    def sweep(
        self, sweep: ParameterSweep, progress: ProgressFn | None = None
    ) -> SweepResult:
        """Run a parameter sweep on the service's executor and run cache."""
        return sweep.run(progress=progress, executor=self._executor, cache=self._cache)

    def run_experiments(
        self,
        scale: float = 0.1,
        repeats: int = 3,
        seed: int = 1,
        only: Sequence[str] | None = None,
        store: ResultStore | None = None,
        progress: ProgressFn | None = None,
        base_params: SimulationParameters | None = None,
        throughput: bool = False,
        experiment_kwargs: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> "dict[str, ExperimentResult]":
        """Run the selected experiments (all by default) and validate each.

        This is the orchestration that ``repro.experiments.runner.run_all``
        has always performed — experiment instantiation, the figure4→figure5
        sweep-sharing rule, incremental persistence into ``store`` — now
        running on the service's executor and cache.  ``throughput`` reports
        each completed run's transactions/sec through ``progress`` (or
        stderr).  ``experiment_kwargs`` maps experiment ids to extra
        constructor keyword arguments (e.g. ``{"detection_eval": {"schemes":
        [...]}}`` restricts a grid experiment to a sub-grid).  The returned
        mapping preserves the requested order.
        """
        # Imported per call, not at module top: the experiments package pulls
        # in every figure module, which the service's other workflows (run,
        # sweep, bench, catalogue) do not need.
        from ..experiments import runner as _runner
        from ..experiments.base import ExperimentResult
        from ..experiments.figure4_lent_amount import Figure4LentAmount
        from ..experiments.figure5_lent_proportion import Figure5LentProportion

        selected = (
            list(_runner.EXPERIMENTS) if only is None else list(dict.fromkeys(only))
        )
        for experiment_id in selected:
            _runner.require_known(experiment_id)
        executor: Executor = self._executor
        if throughput:
            emit = progress if progress is not None else (
                lambda line: print(line, file=sys.stderr)
            )
            executor = _runner.ThroughputExecutor(executor, emit)
        completed: dict[str, ExperimentResult] = {}
        figure4_instance: Figure4LentAmount | None = None
        for experiment_id in _runner.execution_order(selected):
            experiment = _runner.make_experiment(
                experiment_id,
                scale=scale,
                repeats=repeats,
                seed=seed,
                base_params=base_params,
                executor=executor,
                cache=self._cache,
                **((experiment_kwargs or {}).get(experiment_id, {})),
            )
            if isinstance(experiment, Figure4LentAmount):
                figure4_instance = experiment
            if isinstance(experiment, Figure5LentProportion):
                if figure4_instance is not None:
                    experiment.shared_sweep = figure4_instance.sweep_result
            if progress is not None:
                progress(f"running {experiment_id} ...")
            result = experiment.run_and_validate(progress=progress)
            completed[experiment_id] = result
            if store is not None:
                store.save_json(experiment_id, result.to_dict())
        return {experiment_id: completed[experiment_id] for experiment_id in selected}

    # ------------------------------------------------------------------ #
    # Benchmarks                                                           #
    # ------------------------------------------------------------------ #
    def bench(self, config: Any | None = None) -> dict[str, Any]:
        """Run the hot-path benchmark suite and return its report document.

        ``config`` is a :class:`~repro.bench.hotpath.HotpathBenchConfig`
        (``None`` uses the committed-report defaults).  Benchmarks always run
        inline in this process, never on the executor, so their timings do
        not overlap other simulations.
        """
        from ..bench import hotpath

        if config is None:
            config = hotpath.HotpathBenchConfig()
        return hotpath.run_hotpath_benchmarks(config)

    # ------------------------------------------------------------------ #
    # Lifecycle                                                            #
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the executor's worker pool (the service stays queryable)."""
        self._executor.close()

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
