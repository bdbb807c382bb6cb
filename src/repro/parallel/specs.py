"""Run specifications — the unit of work the executors operate on.

A :class:`RunSpec` pins down one simulation completely: the fully resolved
:class:`~repro.config.SimulationParameters` and the seed the run must use.
The seed is derived by the sweep machinery through
:func:`repro.rng.derive_seed` from (master seed, sweep name, point label,
repeat index), exactly as the serial harness always did, so executing the
same spec serially, on a thread pool, or in a worker process produces the
same :class:`~repro.metrics.summary.RunSummary` bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..config import SimulationParameters

__all__ = ["RunSpec", "params_fingerprint"]


def params_fingerprint(params: SimulationParameters) -> str:
    """Stable hexadecimal digest identifying a parameter set.

    Computed over the sorted-key JSON form of the parameters, so it is
    insensitive to construction order and identical across processes and
    interpreter invocations (unlike ``hash()``).
    """
    text = params.to_json()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RunSpec:
    """One simulation to execute: resolved parameters plus a derived seed.

    Instances are small, hashable and picklable, which is what lets the
    process backend ship them to worker processes unchanged.

    Attributes
    ----------
    params:
        The fully resolved configuration (overrides and scaling applied).
    seed:
        The exact seed :func:`repro.sim.engine.run_simulation` must use.
    sweep:
        Name of the sweep the spec belongs to (progress/debugging only).
    label:
        Label of the sweep point the spec belongs to.
    repeat:
        Zero-based repeat index at that point.
    total_repeats:
        Number of repeats at that point (progress rendering only).
    trace_mode:
        ``None`` for a plain run, ``"record"`` to capture this run's event
        trace, ``"replay"`` to re-inject a recorded one (see
        :mod:`repro.trace`).  Carried as plain strings/paths so specs stay
        picklable for the process backend.
    trace_path:
        The trace file: destination when recording, source when replaying.
    trace_record_to:
        Replay only — also record the replayed run's trace to this path.
    trace_digest_every:
        State-digest cadence while recording (1 = every record).
    persist_path:
        Durable-store URL (``sqlite://...``, ``memory://name``) or bare
        sqlite path the run checkpoints its backend state to on finalize
        (see :mod:`repro.storage`).  Like the trace facet, an execution
        side-effect rather than part of the run's identity — excluded from
        :func:`params_fingerprint`, and persisted specs bypass the run
        cache (a cache hit would skip the state write).
    persist_key:
        Snapshot key inside the store; ``None`` lets the persistence layer
        derive ``backend/<scheme>``.
    persist_resume:
        Restore the backend from the store before the run instead of
        starting cold (digest-verified; see
        :class:`repro.storage.BackendPersistence`).
    """

    params: SimulationParameters
    seed: int
    sweep: str = ""
    label: str = ""
    repeat: int = 0
    total_repeats: int = 1
    trace_mode: str | None = None
    trace_path: str | None = None
    trace_record_to: str | None = None
    trace_digest_every: int = 1
    persist_path: str | None = None
    persist_key: str | None = None
    persist_resume: bool = False

    def describe(self) -> str:
        """Short human-readable progress line for this run."""
        return (
            f"[{self.sweep}] point={self.label} "
            f"repeat={self.repeat + 1}/{self.total_repeats}"
        )
