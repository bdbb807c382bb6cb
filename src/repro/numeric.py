"""Float summation in numpy's order.

The experiment tables and detection metrics were first computed with numpy,
whose ``add.reduce`` sums floats pairwise.  :func:`pairwise_sum` adds in
exactly that order, so those numbers depend neither on numpy nor on the
interpreter's ``sum()``, a compensated sum from Python 3.12 on.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["pairwise_sum"]


def pairwise_sum(values: Iterable[float]) -> float:
    """The sum of ``values`` as ``numpy.add.reduce`` computes it for float64.

    numpy's ``pairwise_sum`` (``loops_utils.h.src``): up to 128 values are
    added in eight interleaved running totals and then the remainder of
    fewer than eight in order; longer runs are split in two near the middle.
    """
    values = list(values)
    count = len(values)
    if count > 128:
        half = count // 2 - count // 2 % 8
        return pairwise_sum(values[:half]) + pairwise_sum(values[half:])
    stop = count - count % 8
    total = 0.0
    if stop:
        lanes = [0.0] * 8
        for index in range(stop):
            lanes[index % 8] += values[index]
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        )
    for value in values[stop:]:
        total += value
    return total
