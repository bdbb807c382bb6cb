"""Topology construction from simulation parameters."""

from __future__ import annotations

from ..config import SimulationParameters, Topology
from ..rng import Stream
from .base import TopologyModel
from .random_topology import RandomTopology
from .scale_free import ScaleFreeTopology

__all__ = ["make_topology"]


def make_topology(
    params: SimulationParameters, rng: Stream | None = None
) -> TopologyModel:
    """Build the interaction topology selected by ``params.topology``.

    ``rng`` seeds the scale-free attachment process; the random topology is
    parameter-free and ignores it.
    """
    if params.topology == Topology.RANDOM:
        return RandomTopology()
    if params.topology == Topology.SCALE_FREE:
        return ScaleFreeTopology(
            attachment=params.scale_free_attachment,
            exponent=params.scale_free_exponent,
            rng=rng,
        )
    raise ValueError(f"unsupported topology: {params.topology!r}")
