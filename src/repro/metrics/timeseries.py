"""A small time-series container."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..numeric import pairwise_sum

__all__ = ["TimeSeries"]


@dataclass
class TimeSeries:
    """An append-only series of (time, value) samples.

    Values may be ``float('nan')`` when the quantity was undefined at sample
    time (e.g. the average reputation of uncooperative peers before any have
    been admitted); consumers use :meth:`finite` to drop those points.
    """

    name: str = ""
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, time: float, value: float) -> None:
        """Add one sample; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"samples must be appended in time order "
                f"({time} < {self.times[-1]})"
            )
        self.times.append(float(time))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    def __bool__(self) -> bool:
        return bool(self.times)

    def finite(self) -> "TimeSeries":
        """Return a copy without NaN/inf samples."""
        clean = TimeSeries(name=self.name)
        for time, value in zip(self.times, self.values):
            if math.isfinite(value):
                clean.append(time, value)
        return clean

    def last_value(self, default: float = float("nan")) -> float:
        """The most recent value, or ``default`` when empty."""
        return self.values[-1] if self.values else default

    def mean(self) -> float:
        """Mean of the finite values (NaN when none), summed as numpy sums."""
        values = [value for value in self.values if math.isfinite(value)]
        if not values:
            return float("nan")
        return pairwise_sum(values) / len(values)

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation."""
        return {"name": self.name, "times": list(self.times), "values": list(self.values)}

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "TimeSeries":
        """Rebuild a series produced by :meth:`to_dict`.

        Sample values of ``None`` map back to ``nan``: strict-JSON storage
        (:meth:`repro.analysis.storage.ResultStore.save_json`) sanitises
        non-finite floats to ``null``, and samples like "mean reputation of
        an empty cohort" are legitimately ``nan``.
        """
        series = cls(name=str(data.get("name", "")))
        times = list(data.get("times", []))  # type: ignore[arg-type]
        values = list(data.get("values", []))  # type: ignore[arg-type]
        for time, value in zip(times, values):
            series.append(
                float(time), float("nan") if value is None else float(value)
            )
        return series
