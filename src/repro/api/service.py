""":class:`SimulationService` — the one front door for running simulations.

The service owns the things every entry point used to hand-wire for itself:
the executor its job count picks (inline for one job, a process pool for
more, via :func:`repro.parallel.executor.create_executor`), the persistent
:class:`~repro.parallel.cache.RunCache`, and the unified registry
:func:`~repro.api.catalogue.catalogue`.  On top of those it offers every
workflow the repo has grown:

* :meth:`run` / :meth:`run_batch` — execute :class:`RunRequest` objects
  (the quickstart/bootstrap-policies path);
* :meth:`submit` — the same, asynchronously, returning a
  :class:`~repro.api.handle.RunHandle` with progress and cancellation;
* :meth:`sweep` — run a :class:`~repro.workloads.sweep.ParameterSweep` on
  the service's executor and cache (the introducer-economics path);
* :meth:`run_experiments` — the experiment orchestration behind
  ``python -m repro experiment``.

Results are bit-identical to the legacy entry points for equivalent inputs,
for any job count — golden-digest tests pin this.
"""

from __future__ import annotations

import threading
from contextlib import AbstractContextManager, nullcontext
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from ..analysis.storage import ResultStore
from ..config import SimulationParameters
from ..parallel.cache import RunCache
from ..parallel.executor import Executor, ProgressFn, create_executor, run_specs
from ..workloads.sweep import ParameterSweep, SweepResult
from .catalogue import catalogue as build_catalogue
from .handle import ProgressEvent, RunHandle
from .request import RunRequest
from .results import BatchResult, RunResult

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..experiments.base import ExperimentResult

__all__ = ["SimulationService"]


class SimulationService:
    """A configured simulation runner: executor + run cache + catalogue.

    Parameters
    ----------
    jobs:
        Simulations to run concurrently: 1 runs them inline, N on N worker
        processes.
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
        cache: RunCache | Path | str | None = None,
    ) -> None:
        self._executor: Executor = create_executor(jobs)
        if cache is not None and not isinstance(cache, RunCache):
            cache = RunCache(cache)
        self._cache = cache
        # The process pool bounds concurrent work by its worker count; the
        # serial executor has no pool, so every workflow that simulates
        # (submitted handles, batches, sweeps, experiment suites) takes this
        # lock to honour its one-at-a-time budget.
        self._slot: AbstractContextManager[Any] = (
            threading.Lock() if self._executor.backend == "serial" else nullcontext()
        )

    # ------------------------------------------------------------------ #
    # Introspection                                                        #
    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> str:
        """The executor the job count picked: ``serial`` or ``process``."""
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
        return self._execute((request,), progress=progress)[0]

    def run_batch(
        self,
        requests: Iterable[RunRequest],
        progress: ProgressFn | None = None,
    ) -> BatchResult:
        """Execute several requests as one executor batch.

        All repeats of all requests are submitted together, so a process
        pool overlaps work *across* requests — yet each result is
        bit-identical to running its request alone.
        """
        return BatchResult(results=self._execute(tuple(requests), progress=progress))

    def submit(self, request: RunRequest) -> RunHandle:
        """Execute ``request`` on a background thread; returns at once.

        The returned :class:`RunHandle` reports one event per completed
        repeat and supports cooperative cancellation.  Handles share the
        service's executor (and worker pool), so several submissions
        interleave on the same ``jobs`` budget.
        """
        self._executor.prepare()
        handle = RunHandle(
            request, runner=lambda h: self._execute((request,), handle=h)[0]
        )
        handle._start()
        return handle

    def _execute(
        self,
        requests: tuple[RunRequest, ...],
        progress: ProgressFn | None = None,
        handle: RunHandle | None = None,
    ) -> tuple[RunResult, ...]:
        """Run every repeat of ``requests`` as one batch; one result each.

        ``handle`` (a submitted request's) records one event per finished
        repeat and is checked for cancellation once this batch holds the
        one-job slot, so a run cancelled while it queued never starts.
        """
        specs = []
        extents: list[tuple[int, int]] = []
        for request in requests:
            request_specs = request.specs()
            extents.append((len(specs), len(request_specs)))
            specs.extend(request_specs)
        cached = [False] * len(specs)
        completed = 0

        # run_specs calls this on the calling thread, one run at a time.
        def on_result(index: int, summary: Any, hit: bool) -> None:
            nonlocal completed
            cached[index] = hit
            completed += 1
            if handle is not None:
                spec = specs[index]
                handle._record(
                    ProgressEvent(
                        label=spec.label,
                        repeat=spec.repeat,
                        seed=spec.seed,
                        completed=completed,
                        total=len(specs),
                    )
                )

        with self._slot:
            if handle is not None:
                handle._check_cancelled()
            summaries = run_specs(
                specs,
                executor=self._executor,
                cache=self._cache,
                progress=progress,
                on_result=on_result,
            )
        return tuple(
            RunResult(
                request=request,
                params=specs[start].params,
                summaries=tuple(summaries[start : start + count]),
                backend=self.backend,
                cache_hits=sum(cached[start : start + count]),
            )
            for request, (start, count) in zip(requests, extents)
        )

    # ------------------------------------------------------------------ #
    # Sweeps and experiments                                               #
    # ------------------------------------------------------------------ #
    def sweep(
        self, sweep: ParameterSweep, progress: ProgressFn | None = None
    ) -> SweepResult:
        """Run a parameter sweep on the service's executor and run cache.

        Like every workflow that simulates, the sweep holds the service's
        one-job slot, so on one job it waits for a submitted run to finish.
        """
        with self._slot:
            return sweep.run(
                progress=progress, executor=self._executor, cache=self._cache
            )

    def run_experiments(
        self,
        scale: float = 0.1,
        repeats: int = 3,
        seed: int = 1,
        only: Sequence[str] | None = None,
        store: ResultStore | None = None,
        progress: ProgressFn | None = None,
        base_params: SimulationParameters | None = None,
        experiment_kwargs: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> "dict[str, ExperimentResult]":
        """Run the selected experiments (all by default) and validate each.

        The orchestration covers experiment instantiation, the
        figure4→figure5 sweep-sharing rule and incremental persistence into
        ``store``, all on the service's executor and cache.  ``progress``
        (if given) receives one line as each experiment starts and one per
        finished run, with its transactions/sec.  ``experiment_kwargs`` maps
        experiment ids to extra constructor keyword arguments (e.g.
        ``{"detection_eval": {"schemes": [...]}}`` restricts a grid
        experiment to a sub-grid).  The returned mapping preserves the
        requested order.  The whole suite holds the service's one-job slot:
        on one job it waits for a submitted run, and runs submitted meanwhile
        wait for it.
        """
        # Imported per call, not at module top: the experiments package pulls
        # in every figure module, which the service's other workflows (run,
        # sweep, catalogue) do not need.
        from ..experiments import runner as _runner
        from ..experiments.base import ExperimentResult
        from ..experiments.figure4_lent_amount import Figure4LentAmount
        from ..experiments.figure5_lent_proportion import Figure5LentProportion

        selected = (
            list(_runner.EXPERIMENTS) if only is None else list(dict.fromkeys(only))
        )
        for experiment_id in selected:
            _runner.require_known(experiment_id)
        completed: dict[str, ExperimentResult] = {}
        figure4_instance: Figure4LentAmount | None = None
        with self._slot:
            for experiment_id in _runner.execution_order(selected):
                experiment = _runner.make_experiment(
                    experiment_id,
                    scale=scale,
                    repeats=repeats,
                    seed=seed,
                    base_params=base_params,
                    executor=self._executor,
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
    # Lifecycle                                                            #
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the executor's worker pool (the service stays queryable)."""
        self._executor.close()

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
