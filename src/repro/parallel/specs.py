"""Run specifications — the unit of work the executors operate on.

A :class:`RunSpec` pins down one simulation completely: the fully resolved
:class:`~repro.config.SimulationParameters` and the seed the run must use.
The seed is derived by the sweep machinery through
:func:`repro.rng.derive_seed` from (master seed, sweep name, point label,
repeat index), exactly as the serial harness always did, so executing the
same spec inline or in a worker process produces the same
:class:`~repro.metrics.summary.RunSummary` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..config import SimulationParameters
from ..ids import sha256

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..storage.spec import PersistSpec
    from ..trace.spec import TraceSpec

__all__ = ["RunSpec", "params_fingerprint"]


def params_fingerprint(params: SimulationParameters) -> str:
    """Stable hexadecimal digest identifying a parameter set.

    Computed over the sorted-key JSON form of the parameters, so it is
    insensitive to construction order and identical across processes and
    interpreter invocations (unlike ``hash()``).
    """
    text = params.to_json()
    return sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RunSpec:
    """One simulation to execute: resolved parameters plus a derived seed.

    Instances are small, hashable and picklable, which is what lets the
    process executor ship them to worker processes unchanged.

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
    trace:
        The request's trace facet (record or replay this run's event trace,
        see :mod:`repro.trace`), or ``None`` for a plain run.
    persist:
        The request's persistence facet: the store the run checkpoints its
        backend state to on finalize (see :mod:`repro.storage`).  Like the
        trace facet, an execution side-effect rather than part of the run's
        identity — excluded from :func:`params_fingerprint` — and specs
        carrying either facet bypass the run cache.
    """

    params: SimulationParameters
    seed: int
    sweep: str = ""
    label: str = ""
    repeat: int = 0
    total_repeats: int = 1
    trace: TraceSpec | None = None
    persist: PersistSpec | None = None

    def describe(self) -> str:
        """Short human-readable progress line for this run."""
        return (
            f"[{self.sweep}] point={self.label} "
            f"repeat={self.repeat + 1}/{self.total_repeats}"
        )
