"""Behaviour strategies for simulated peers.

A behaviour answers three questions during a transaction:

* does this peer serve a request it has accepted with good (satisfactory)
  service?
* what satisfaction value does it *report* about its partner? (uncooperative
  peers in the paper always report 0 "in order to reduce the impact on their
  own reputation");
* is the peer, for the purposes of ground-truth metrics, cooperative?
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..rng import Stream

__all__ = [
    "BehaviorKind",
    "BehaviorModel",
    "CooperativeBehavior",
    "FreeriderBehavior",
    "MaliciousProviderBehavior",
    "ColluderBehavior",
    "SlandererBehavior",
    "WhitewasherBehavior",
    "make_behavior",
]


class BehaviorKind(str, Enum):
    """Ground-truth classification of a peer's behaviour."""

    COOPERATIVE = "cooperative"
    FREERIDER = "freerider"
    MALICIOUS_PROVIDER = "malicious_provider"
    COLLUDER = "colluder"
    SLANDERER = "slanderer"
    WHITEWASHER = "whitewasher"


@dataclass(slots=True)
class BehaviorModel:
    """Base behaviour: parameterised by service quality and reporting honesty.

    Attributes
    ----------
    kind:
        Ground-truth label used by the metrics layer.
    service_quality:
        Probability that a served request is satisfactory.
    honest_reporting:
        If True the peer reports its true satisfaction; if False it always
        reports dissatisfaction about partners (the paper's uncooperative
        reporting model).
    """

    kind: BehaviorKind
    service_quality: float
    honest_reporting: bool = True

    @property
    def is_cooperative(self) -> bool:
        """Ground truth: does this peer add value to the community?"""
        return self.kind == BehaviorKind.COOPERATIVE

    def provides_good_service(self, rng: Stream) -> bool:
        """Whether one served request turns out satisfactory."""
        return rng.random() < self.service_quality

    def report_value(self, partner: int, satisfied: bool) -> float:
        """Satisfaction value reported about ``partner`` to its score managers."""
        if self.honest_reporting:
            return 1.0 if satisfied else 0.0
        return 0.0


class CooperativeBehavior(BehaviorModel):
    """Honest peer: high service quality, truthful reports."""

    __slots__ = ()

    def __init__(self, service_quality: float = 0.95) -> None:
        super().__init__(
            kind=BehaviorKind.COOPERATIVE,
            service_quality=service_quality,
            honest_reporting=True,
        )


class FreeriderBehavior(BehaviorModel):
    """Uncooperative peer: consumes resources, rarely serves, badmouths partners."""

    __slots__ = ()

    def __init__(self, service_quality: float = 0.05) -> None:
        super().__init__(
            kind=BehaviorKind.FREERIDER,
            service_quality=service_quality,
            honest_reporting=False,
        )


class MaliciousProviderBehavior(BehaviorModel):
    """Peer that serves requests but furnishes corrupted content.

    From the system's point of view it is indistinguishable from a freerider
    once feedback accumulates (every served request is unsatisfactory), but
    keeping it distinct lets experiments separate the two attack types the
    paper's threat model names.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(
            kind=BehaviorKind.MALICIOUS_PROVIDER,
            service_quality=0.0,
            honest_reporting=False,
        )


@dataclass
class ColluderBehavior(BehaviorModel):
    """Member of a collusion ring.

    Colluders behave cooperatively towards everyone (to accumulate enough
    reputation to introduce their accomplices) but always report full
    satisfaction about fellow ring members regardless of the actual outcome,
    inflating each other's reputations.

    Unlike its siblings it keeps an instance dict: its ``ring`` default is a
    class attribute, which a slot of the same name would clash with.
    """

    ring: frozenset[int] = frozenset()

    def __init__(self, ring: frozenset[int] | set[int] = frozenset()) -> None:
        super().__init__(
            kind=BehaviorKind.COLLUDER,
            service_quality=0.95,
            honest_reporting=True,
        )
        self.ring = frozenset(ring)

    def report_value(self, partner: int, satisfied: bool) -> float:
        """Collusion-aware report: ring members always get a perfect score."""
        if partner in self.ring:
            return 1.0
        return 1.0 if satisfied else 0.0


class SlandererBehavior(BehaviorModel):
    """Bad-mouthing attacker: serves well, but reports dissatisfaction always.

    Slanderers masquerade as good citizens on the service side (so the
    community keeps interacting with them) while systematically filing
    negative feedback about every partner, dragging honest reputations down.
    Schemes that weigh reports by reporter credibility (ROCQ) should discount
    them once their reports diverge from the consensus; schemes that count
    raw complaints cannot.
    """

    __slots__ = ()

    def __init__(self, service_quality: float = 0.95) -> None:
        super().__init__(
            kind=BehaviorKind.SLANDERER,
            service_quality=service_quality,
            honest_reporting=False,
        )


class WhitewasherBehavior(BehaviorModel):
    """Freerider that plans to discard its identity once its reputation dies.

    The whitewashing *act* (leaving and re-joining under a fresh identity) is
    orchestrated by the simulation engine; the behaviour itself is a
    freerider that records how many identities it has burned so far.
    """

    __slots__ = ("identities_used",)

    def __init__(self, service_quality: float = 0.05) -> None:
        super().__init__(
            kind=BehaviorKind.WHITEWASHER,
            service_quality=service_quality,
            honest_reporting=False,
        )
        self.identities_used = 1


def make_behavior(
    kind: BehaviorKind | str,
    cooperative_quality: float = 0.95,
    uncooperative_quality: float = 0.05,
) -> BehaviorModel:
    """Factory building a behaviour from its kind label.

    ``cooperative_quality`` / ``uncooperative_quality`` come from the
    simulation parameters so every behaviour in a run shares the same service
    model.
    """
    kind = BehaviorKind(kind)
    if kind == BehaviorKind.COOPERATIVE:
        return CooperativeBehavior(service_quality=cooperative_quality)
    if kind == BehaviorKind.FREERIDER:
        return FreeriderBehavior(service_quality=uncooperative_quality)
    if kind == BehaviorKind.MALICIOUS_PROVIDER:
        return MaliciousProviderBehavior()
    if kind == BehaviorKind.COLLUDER:
        return ColluderBehavior()
    if kind == BehaviorKind.SLANDERER:
        return SlandererBehavior(service_quality=cooperative_quality)
    if kind == BehaviorKind.WHITEWASHER:
        return WhitewasherBehavior(service_quality=uncooperative_quality)
    raise ValueError(f"unsupported behaviour kind: {kind!r}")
