"""The simulation clock."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError

__all__ = ["SimulationClock"]


@dataclass
class SimulationClock:
    """Monotonically advancing simulation time.

    The paper measures time in abstract "simulation time units"; exactly one
    resource transaction occurs per unit.  The clock enforces monotonicity so
    a mis-ordered event cannot silently rewind the simulation.
    """

    now: float = 0.0

    def advance_to(self, time: float) -> float:
        """Move the clock forward to ``time`` (backwards moves raise)."""
        if time < self.now:
            raise SimulationError(
                f"clock cannot move backwards (now={self.now:g}, asked={time:g})"
            )
        self.now = time
        return self.now
