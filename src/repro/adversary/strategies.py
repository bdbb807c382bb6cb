"""Built-in adversary strategies.

Each strategy drives the existing :mod:`repro.peers.behavior` primitives
(freeriders, colluders, slanderers, whitewashers) through the engine's
public scenario hooks on the spec's deterministic schedule.  The five
built-ins cover the attack taxonomy of the paper's discussion:

``sybil_swarm``
    One operator floods the **admission pipeline** with waves of freeriding
    identities.  Schemes that trust strangers admit them all at full
    standing; the lending mechanism makes each identity cost an introducer's
    stake.
``collusion_ring``
    A freeriding accomplice is propped up by colluders that always report
    full satisfaction about ring members.  With ``oscillate`` set (the
    default) the colluders additionally alternate between model-citizen and
    freeriding service each interval — building reputation, then milking it.
``slander``
    Well-serving insiders that file negative reports about every partner
    (bad-mouthing).  Credibility-weighted aggregation should discount them;
    raw complaint counting cannot.
``whitewash_waves``
    Insiders freeride until their reputation burns below a threshold, then
    coordinate: discard the identity and re-enter the admission pipeline as
    fresh strangers.  The attack the reputation-lending bootstrap exists to
    close.
``churn_storm``
    Bursts of simultaneous joins and departures.  Not a trust attack — a
    load attack on the overlay: every burst moves score-manager
    responsibility arcs and stresses the targeted assignment-invalidation
    path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import AdversarySpec
from ..core.policies import NaivePolicy
from ..ids import PeerId
from ..peers.behavior import (
    ColluderBehavior,
    CooperativeBehavior,
    FreeriderBehavior,
    SlandererBehavior,
    WhitewasherBehavior,
)
from ..peers.peer import PeerStatus
from .base import register_adversary

__all__ = [
    "SybilSwarmStrategy",
    "CollusionRingStrategy",
    "SlanderStrategy",
    "WhitewashWavesStrategy",
    "ChurnStormStrategy",
    "WhitewashRebirth",
]


class _StrategyBase:
    """Shared bookkeeping: the spec and every identity the adversary controls."""

    def __init__(self, spec: AdversarySpec) -> None:
        self.spec = spec
        self.attacker_ids: list[PeerId] = []

    def option(self, key: str, default: float) -> float:
        return self.spec.option(key, default)

    def install(self, sim, time: float) -> None:  # pragma: no cover - override
        pass

    def act(self, sim, time: float) -> None:  # pragma: no cover - override
        pass


@register_adversary(
    "sybil_swarm",
    description="waves of throwaway freerider identities flood admission",
    knobs=("service_quality", "waves"),
)
class SybilSwarmStrategy(_StrategyBase):
    """Sybil flood: many cheap identities, all through the real front door."""

    def __init__(self, spec: AdversarySpec) -> None:
        super().__init__(spec)
        self.waves_sent = 0

    def _send_wave(self, sim, time: float) -> None:
        quality = self.option("service_quality", 0.05)
        for _ in range(self.spec.count):
            sybil = sim.inject_arrival(FreeriderBehavior(service_quality=quality))
            self.attacker_ids.append(sybil.peer_id)
        self.waves_sent += 1

    def install(self, sim, time: float) -> None:
        self._send_wave(sim, time)

    def act(self, sim, time: float) -> None:
        if self.waves_sent < int(self.option("waves", 3)):
            self._send_wave(sim, time)


@register_adversary(
    "collusion_ring",
    description="colluders inflate a freeriding accomplice; oscillate service",
    knobs=(
        "accomplice_reputation",
        "colluder_reputation",
        "freerider_quality",
        "high_quality",
        "low_quality",
        "oscillate",
    ),
)
class CollusionRingStrategy(_StrategyBase):
    """Collusion ring: ``count - 1`` colluders prop up one freerider."""

    def __init__(self, spec: AdversarySpec) -> None:
        super().__init__(spec)
        self.accomplice_id: PeerId | None = None
        self.colluder_ids: list[PeerId] = []
        self._milking = False

    def install(self, sim, time: float) -> None:
        accomplice = sim.add_member(
            FreeriderBehavior(service_quality=self.option("freerider_quality", 0.05)),
            initial_reputation=self.option("accomplice_reputation", 0.5),
        )
        self.accomplice_id = accomplice.peer_id
        self.attacker_ids.append(accomplice.peer_id)
        ring_ids = {accomplice.peer_id}
        colluders = []
        for _ in range(self.spec.count - 1):
            colluder = sim.add_member(
                ColluderBehavior(ring=set(ring_ids)),
                introducer_policy=NaivePolicy(),
                initial_reputation=self.option("colluder_reputation", 1.0),
            )
            ring_ids.add(colluder.peer_id)
            colluders.append(colluder)
        for colluder in colluders:
            colluder.behavior.ring = frozenset(ring_ids)
        self.colluder_ids = [colluder.peer_id for colluder in colluders]
        self.attacker_ids.extend(self.colluder_ids)

    def act(self, sim, time: float) -> None:
        if not self.option("oscillate", 1.0):
            return
        self._milking = not self._milking
        quality = (
            self.option("low_quality", 0.05)
            if self._milking
            else self.option("high_quality", 0.95)
        )
        for colluder_id in self.colluder_ids:
            sim.population.get(colluder_id).behavior.service_quality = quality


@register_adversary(
    "slander",
    description="well-serving insiders bad-mouth every transaction partner",
    knobs=("service_quality", "initial_reputation"),
)
class SlanderStrategy(_StrategyBase):
    """Bad-mouthing: trusted insiders file only negative feedback."""

    def install(self, sim, time: float) -> None:
        quality = self.option("service_quality", 0.95)
        standing = self.option("initial_reputation", 1.0)
        for _ in range(self.spec.count):
            slanderer = sim.add_member(
                SlandererBehavior(service_quality=quality),
                initial_reputation=standing,
            )
            self.attacker_ids.append(slanderer.peer_id)


@dataclass(frozen=True)
class WhitewashRebirth:
    """One identity discard: who burned, what both identities were worth."""

    time: float
    burned: PeerId
    burned_reputation: float
    fresh: PeerId
    fresh_reputation: float
    identities_used: int = field(default=2)


@register_adversary(
    "whitewash_waves",
    description="burned identities depart and re-enter admission as strangers",
    knobs=("burn_threshold", "service_quality", "initial_reputation"),
)
class WhitewashWavesStrategy(_StrategyBase):
    """Coordinated whitewashing: freeride, burn, discard, re-enter."""

    def __init__(self, spec: AdversarySpec) -> None:
        super().__init__(spec)
        #: Identities currently carrying the attack (active, waiting or dead).
        self.current_ids: list[PeerId] = []
        self.rebirths: list[WhitewashRebirth] = []

    def _behavior(self) -> WhitewasherBehavior:
        return WhitewasherBehavior(
            service_quality=self.option("service_quality", 0.05)
        )

    def install(self, sim, time: float) -> None:
        standing = self.option("initial_reputation", 0.5)
        for _ in range(self.spec.count):
            washer = sim.add_member(self._behavior(), initial_reputation=standing)
            self.attacker_ids.append(washer.peer_id)
            self.current_ids.append(washer.peer_id)

    def _rebirth(self, sim, peer_id: PeerId, position: int, time: float) -> None:
        burned = sim.population.get(peer_id)
        burned_reputation = sim.store.global_reputation(peer_id)
        if burned.is_active:
            sim.schedule_departure(peer_id, time)
        behavior = self._behavior()
        behavior.identities_used = burned.behavior.identities_used + 1
        fresh = sim.inject_arrival(behavior)
        self.attacker_ids.append(fresh.peer_id)
        self.current_ids[position] = fresh.peer_id
        self.rebirths.append(
            WhitewashRebirth(
                time=time,
                burned=peer_id,
                burned_reputation=burned_reputation,
                fresh=fresh.peer_id,
                fresh_reputation=sim.store.global_reputation(fresh.peer_id),
                identities_used=behavior.identities_used,
            )
        )

    def act(self, sim, time: float) -> None:
        threshold = self.option("burn_threshold", 0.3)
        for position, peer_id in enumerate(list(self.current_ids)):
            peer = sim.population.get(peer_id)
            if peer.is_active:
                if sim.store.global_reputation(peer_id) < threshold:
                    self._rebirth(sim, peer_id, position, time)
            elif peer.status == PeerStatus.REJECTED:
                # The fresh identity was refused admission: discard it too and
                # try again — identities are free, that is the whole attack.
                self._rebirth(sim, peer_id, position, time)
            # WAITING identities sit out the waiting period; DEPARTED slots
            # were already replaced when their rebirth was recorded.


@register_adversary(
    "churn_storm",
    description="join/leave bursts stressing targeted overlay invalidation",
    knobs=("service_quality",),
)
class ChurnStormStrategy(_StrategyBase):
    """Membership-churn load: each act departs and injects ``count`` peers."""

    def __init__(self, spec: AdversarySpec) -> None:
        super().__init__(spec)
        self.departures_requested = 0
        self.joins_injected = 0

    def act(self, sim, time: float) -> None:
        rng = sim.streams.stream("adversary")
        active_ids = sim.population.active_ids
        # Departures match the join burst: redraw on duplicate picks (bounded
        # so a tiny community cannot loop forever).  Draws are deterministic,
        # so so is the redraw sequence.
        burst = min(self.spec.count, len(active_ids))
        chosen: list[PeerId] = []
        seen: set[PeerId] = set()
        attempts = 0
        while len(chosen) < burst and attempts < 8 * self.spec.count:
            attempts += 1
            candidate = active_ids[rng.integers(len(active_ids))]
            if candidate not in seen:
                seen.add(candidate)
                chosen.append(candidate)
        for peer_id in chosen:
            sim.schedule_departure(peer_id, time)
            self.departures_requested += 1
        quality = self.option(
            "service_quality", sim.params.cooperative_service_quality
        )
        for _ in range(self.spec.count):
            joiner = sim.add_member(
                CooperativeBehavior(service_quality=quality),
                initial_reputation=sim.params.initial_member_reputation,
            )
            self.attacker_ids.append(joiner.peer_id)
            self.joins_injected += 1
