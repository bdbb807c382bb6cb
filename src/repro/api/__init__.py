"""repro.api — the typed public facade over the whole reproduction.

One front door for everything the library can execute:

* :class:`RunRequest` — a validated, JSON-round-trippable description of a
  simulation (scenario + scheme + adversary + overrides + seed/repeats);
* :class:`SimulationService` — owns executor selection, the run cache and
  the unified :func:`catalogue`; runs requests, batches, sweeps and the
  full experiment suite;
* :class:`RunHandle` — asynchronous submission with progress events and
  cooperative cancellation;
* :class:`RunResult` / :class:`BatchResult` — results with wall-clock-free
  digests (the golden-test currency);
* :class:`ReputationServer` / :func:`serve` — the long-lived JSON-over-HTTP
  service (``python -m repro serve``) binding the simulation service to a
  durable reputation store (:mod:`repro.storage`).

Quickstart::

    from repro.api import RunRequest, SimulationService

    if __name__ == "__main__":  # worker processes re-import this script
        request = RunRequest(scenario="tiny_test", scheme="rocq", seed=7)
        with SimulationService(jobs=4) as service:
            result = service.run(request)
        print(f"{result.summary.success_rate:.2%}")

The command-line face of this module is ``python -m repro`` (see
:mod:`repro.cli`).  :class:`ReputationServer` and :func:`serve` are imported
on first access (PEP 562): the server brings in :mod:`asyncio`, and with it
:mod:`ssl` and OpenSSL, which only ``repro serve`` uses.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_attributes
from ..trace.spec import TraceSpec
from .catalogue import (
    CATALOGUE_SECTIONS,
    catalogue,
    experiment_catalogue,
    fuzz_generator_catalogue,
    resolve_adversary,
    resolve_experiment_ids,
    resolve_scenario,
    resolve_scheme,
    resolve_trace,
)
from .errors import RunCancelledError, UnknownNameError, did_you_mean
from .handle import ProgressEvent, RunHandle
from .request import RunRequest
from .results import BatchResult, RunResult, summary_digest
from .service import SimulationService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .server import ReputationServer, serve

#: Name -> the submodule that defines it, imported on first access.
_LAZY = {"ReputationServer": ".server", "serve": ".server"}

__all__ = [
    "RunRequest",
    "RunResult",
    "BatchResult",
    "RunHandle",
    "ProgressEvent",
    "SimulationService",
    "ReputationServer",
    "serve",
    "TraceSpec",
    "catalogue",
    "CATALOGUE_SECTIONS",
    "experiment_catalogue",
    "fuzz_generator_catalogue",
    "resolve_scenario",
    "resolve_scheme",
    "resolve_adversary",
    "resolve_experiment_ids",
    "resolve_trace",
    "summary_digest",
    "UnknownNameError",
    "RunCancelledError",
    "did_you_mean",
]

__getattr__ = lazy_attributes(__name__, _LAZY)
