"""EigenTrust (Kamvar, Schlosser, Garcia-Molina, WWW 2003).

Each peer i normalises its local trust values ``c_ij`` (satisfactory minus
unsatisfactory interactions, floored at zero) and the global trust vector is
the stationary distribution of the resulting matrix, computed by power
iteration with a damping factor towards a set of pre-trusted peers — exactly
the PageRank-style construction of the original paper.

Newcomers have no incoming local trust at all, so their global trust is the
damping mass spread over the pre-trusted set (zero unless they are
pre-trusted): EigenTrust is a "both feedback counts, newcomer near the
bottom" system in the taxonomy of §1.

The iteration is sparse and pure Python, with one fixed summation order, so
the trust vector is the same on every host and interpreter: each subject adds
its raters' contributions in ascending rater order, then the trust mass of
the raters with no positive ratings (whose row of the matrix is the
pre-trust vector) as one term, then its damping share.
"""

from __future__ import annotations

import math
import operator

from ..ids import PeerId
from .base import ReputationSystem

__all__ = ["EigenTrust"]


class EigenTrust(ReputationSystem):
    """Global trust via power iteration over normalised local trust."""

    name = "eigentrust"

    def __init__(
        self,
        pre_trusted: set[PeerId] | None = None,
        damping: float = 0.15,
        max_iterations: int = 100,
        tolerance: float = 1e-10,
    ) -> None:
        super().__init__()
        if not 0.0 <= damping <= 1.0:
            raise ValueError("damping must be within [0, 1]")
        self.pre_trusted = set(pre_trusted) if pre_trusted else set()
        self.damping = damping
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        #: Last converged trust vector, reused to warm-start :meth:`score_table`.
        self._warm_trust: dict[PeerId, float] = {}

    def _power_iteration(self, start: dict[PeerId, float]) -> dict[PeerId, float]:
        """The converged global trust of every peer in the log.

        Iterates ``t' = (1 - d) C^T t + d p`` from ``start`` (normalised to
        sum 1), or from the pre-trust vector ``p`` when ``start`` holds no
        mass, until the L1 change falls below :attr:`tolerance` or for
        :attr:`max_iterations` steps.
        """
        peers = sorted(self.log.peers)
        if not peers:
            return {}
        count = len(peers)
        index = {peer: position for position, peer in enumerate(peers)}
        trusted = [index[peer] for peer in peers if peer in self.pre_trusted]
        if trusted:
            pretrust = [0.0] * count
            for position in trusted:
                pretrust[position] = 1.0 / len(trusted)
        else:
            pretrust = [1.0 / count] * count

        # Row i of C: rater i's positive local trust c_ij, normalised by the
        # row's (integer, so exact) total.
        negative = self.log.negative
        rows: dict[int, list[tuple[int, int]]] = {}
        for (rater, subject), positives in self.log.positive.items():
            value = positives - negative.get((rater, subject), 0)
            if value > 0:
                rows.setdefault(index[rater], []).append((index[subject], value))
        keep = 1.0 - self.damping
        incoming: list[list[tuple[int, float]]] = [[] for _ in range(count)]
        for rater in sorted(rows):
            row = rows[rater]
            total = sum(value for _, value in row)
            for subject, value in row:
                incoming[subject].append((rater, keep * (value / total)))
        # A rater with no positive ratings trusts as the pre-trust vector.
        dangling = [position for position in range(count) if position not in rows]
        shares = [keep * weight for weight in pretrust]
        teleport = [self.damping * weight for weight in pretrust]

        trust = [start.get(peer, 0.0) for peer in peers]
        total = math.fsum(trust)
        trust = [value / total for value in trust] if total > 0 else pretrust
        for _ in range(self.max_iterations):
            mass = math.fsum([trust[position] for position in dangling])
            updated: list[float] = []
            append = updated.append
            for contributions, share, base in zip(incoming, shares, teleport):
                value = 0.0
                for rater, weight in contributions:
                    value += weight * trust[rater]
                append(value + share * mass + base)
            change = math.fsum(map(abs, map(operator.sub, updated, trust)))
            trust = updated
            if change < self.tolerance:
                break
        return dict(zip(peers, trust))

    def global_trust(self) -> dict[PeerId, float]:
        """The converged global trust vector, iterated from the pre-trust vector."""
        return self._power_iteration({})

    def score(self, peer: PeerId) -> float:
        """Global trust normalised by the maximum so scores live in [0, 1]."""
        trust = self.global_trust()
        if peer not in trust:
            return 0.0
        maximum = max(trust.values()) if trust else 0.0
        if maximum <= 0.0:
            return 0.0
        return trust[peer] / maximum

    def score_table(self) -> dict[PeerId, float]:
        """All scores from a single power iteration, warm-started.

        Computing :meth:`score` per peer would repeat the whole power
        iteration once per peer; this batch path runs it once and, unlike
        :meth:`global_trust`, starts from the previously converged vector so
        successive refreshes (the common case inside the simulation adapter)
        converge in fewer iterations.
        """
        trust = self._power_iteration(self._warm_trust)
        self._warm_trust = trust
        maximum = max(trust.values(), default=0.0)
        if maximum <= 0.0:
            return {peer: 0.0 for peer in trust}
        return {peer: value / maximum for peer, value in trust.items()}
