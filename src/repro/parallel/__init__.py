"""Parallel execution of simulation runs.

The experiment harness describes every simulation it needs as a
:class:`~repro.parallel.specs.RunSpec` — a fully resolved parameter set plus
a deterministic seed derived through :func:`repro.rng.derive_seed`.  Batches
of specs are handed to an executor the job count picks: inline for one job,
a :mod:`concurrent.futures` process pool for more.  Because each spec
carries its own seed, results are bit-identical for any job count and in
whichever order the runs finished.

A :class:`~repro.parallel.cache.RunCache` can be layered in front of any
executor to skip runs whose (parameter fingerprint, seed) pair has already
been computed — by an earlier experiment in the same invocation or by a
previous invocation entirely.

The cache and the executors are imported on first access (PEP 562): they
bring in :mod:`concurrent.futures`, :mod:`logging` and the result store,
which a process that only runs simulations never calls.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_attributes
from .specs import RunSpec, params_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cache import CACHE_VERSION, RunCache
    from .executor import (
        Executor,
        ProcessExecutor,
        SerialExecutor,
        create_executor,
        execute_spec,
        run_specs,
    )

#: Name -> the submodule that defines it, imported on first access.
_LAZY = {
    "CACHE_VERSION": ".cache",
    "RunCache": ".cache",
    "Executor": ".executor",
    "ProcessExecutor": ".executor",
    "SerialExecutor": ".executor",
    "create_executor": ".executor",
    "execute_spec": ".executor",
    "run_specs": ".executor",
}

__all__ = [
    "CACHE_VERSION",
    "Executor",
    "ProcessExecutor",
    "RunCache",
    "RunSpec",
    "SerialExecutor",
    "create_executor",
    "execute_spec",
    "params_fingerprint",
    "run_specs",
]

__getattr__ = lazy_attributes(__name__, _LAZY)
