"""Result value objects returned by :class:`~repro.api.service.SimulationService`.

A :class:`RunResult` bundles the request, the parameters it resolved to and
one :class:`~repro.metrics.summary.RunSummary` per repeat; a
:class:`BatchResult` is an ordered collection of run results.  Both expose a
:meth:`digest` computed over the summaries *minus wall-clock time* — the
currency of this repo's golden tests: two execution paths are equivalent
exactly when their digests match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..config import SimulationParameters
from ..ids import sha256
from ..metrics.summary import RunSummary, summary_digest, tx_per_sec
from ..workloads.sweep import aggregate_mean
from .request import RunRequest

__all__ = ["summary_digest", "RunResult", "BatchResult"]


@dataclass(frozen=True)
class RunResult:
    """Everything one executed :class:`RunRequest` produced.

    Attributes
    ----------
    request:
        The request as executed.
    params:
        The resolved parameters every repeat ran with.
    summaries:
        One summary per repeat, in repeat order (independent of job count).
    backend:
        The executor the service ran on, ``serial`` or ``process``
        (informational).
    cache_hits:
        How many repeats were served from the run cache.
    """

    request: RunRequest
    params: SimulationParameters
    summaries: tuple[RunSummary, ...]
    backend: str = "serial"
    cache_hits: int = 0

    @property
    def summary(self) -> RunSummary:
        """The first repeat's summary (the whole result for repeats == 1)."""
        return self.summaries[0]

    def mean(self, getter: Callable[[RunSummary], float]) -> tuple[float, float]:
        """(mean, sample std) of ``getter`` across the repeats."""
        return aggregate_mean([getter(summary) for summary in self.summaries])

    def digest(self) -> str:
        """Digest over every repeat's summary, ignoring wall-clock time.

        Equal digests mean bit-identical results — the equivalence the
        golden tests assert between the service and each legacy path.
        """
        joined = "\n".join(summary_digest(summary) for summary in self.summaries)
        return sha256(joined.encode("utf-8")).hexdigest()

    def elapsed_seconds(self) -> float:
        """Total simulated wall-clock seconds summed across the repeats."""
        return math.fsum(summary.elapsed_seconds for summary in self.summaries)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (used by ``repro run --json``)."""
        throughput = tx_per_sec(self.summaries)
        return {
            "request": self.request.to_dict(),
            "params": self.params.to_dict(),
            "summaries": [summary.to_dict() for summary in self.summaries],
            "backend": self.backend,
            "cache_hits": self.cache_hits,
            "digest": self.digest(),
            "elapsed_seconds": round(self.elapsed_seconds(), 6),
            "tx_per_sec": round(throughput, 1) if throughput is not None else None,
        }


@dataclass(frozen=True)
class BatchResult:
    """Results of a batch of requests, in submission order."""

    results: tuple[RunResult, ...]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[RunResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> RunResult:
        return self.results[index]

    def digest(self) -> str:
        """Digest over every result's digest, in submission order."""
        joined = "\n".join(result.digest() for result in self.results)
        return sha256(joined.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation."""
        return {
            "results": [result.to_dict() for result in self.results],
            "digest": self.digest(),
        }
