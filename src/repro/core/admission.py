"""Admission control: the front door of the community.

:class:`AdmissionController` ties the whole pipeline together.  For every
arriving peer it

1. selects a prospective introducer according to the interaction topology
   (the paper's worst-case "random assignment of introducers");
2. records the introducer's decision — unwilling (selective refusal),
   unable (reputation below ``minIntroRep``), or willing;
3. enforces the waiting period: the answer only takes effect
   ``waiting_period`` time units later, when :meth:`resolve` is called by the
   simulation engine;
4. on a positive answer, performs the lend (via the
   :class:`~repro.core.lending.LendingManager`) and reports that the peer
   should be admitted;
5. under the baseline bootstrap modes (open / fixed credit / closed) it
   skips the introduction machinery and admits (or rejects) immediately;
6. installs an admitted entrant's initial standing for the mode
   (:meth:`AdmissionController.grant_initial_standing`).

The baselines are the two families of alternatives the paper contrasts
lending with (§1): systems that give every newcomer the benefit of the doubt
(``OPEN``: a neutral reputation) and systems that grant a flat initial credit
to get newcomers started, like BitTorrent's optimistic unchoking slice or
Scrivener's initial balance (``FIXED_CREDIT``).

The controller never mutates the population, topology or overlay — the
engine owns those side effects — which keeps it independently testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import BootstrapMode, SimulationParameters
from ..errors import DuplicateIntroductionError
from ..ids import PeerId
from ..peers.peer import Peer
from ..reputation.backend import ReputationBackend
from ..rng import Stream
from ..rocq.protocol import AdjustmentKind, ReputationAdjustment
from ..topology.base import TopologyModel
from .introduction import (
    IntroductionDecision,
    IntroductionRegistry,
    RefusalReason,
)
from .lending import LendingContract, LendingManager

__all__ = ["AdmissionRequest", "AdmissionResult", "AdmissionController"]


@dataclass(frozen=True, slots=True)
class AdmissionRequest:
    """An arrival's admission attempt, waiting for its response time."""

    applicant: PeerId
    introducer: PeerId | None
    decision: IntroductionDecision
    respond_at: float

    @property
    def accepted(self) -> bool:
        """Whether the (pending) decision is positive."""
        return self.decision.accepted


@dataclass(frozen=True)
class AdmissionResult:
    """Final outcome of an admission attempt."""

    applicant: PeerId
    admitted: bool
    introducer: PeerId | None = None
    refusal_reason: RefusalReason | None = None
    contract: LendingContract | None = None
    time: float = 0.0


@dataclass
class AdmissionController:
    """Decides who gets in, and orchestrates lending when they do."""

    params: SimulationParameters
    topology: TopologyModel
    store: ReputationBackend
    lending: LendingManager
    rng: Stream
    registry: IntroductionRegistry = field(init=False)

    def __post_init__(self) -> None:
        self.registry = IntroductionRegistry(waiting_period=self.params.waiting_period)

    # ------------------------------------------------------------------ #
    # Phase 1: the arrival asks for admission                              #
    # ------------------------------------------------------------------ #
    def request_admission(
        self, applicant: Peer, introducer: Peer | None, time: float
    ) -> AdmissionRequest:
        """Open an admission attempt for ``applicant`` at ``time``.

        ``introducer`` is the member the applicant asked (chosen by the
        caller from the topology; ``None`` when the community is empty or the
        mode does not use introducers).  The decision is computed now and
        applied at ``respond_at``.
        """
        mode = self.params.bootstrap_mode
        if mode == BootstrapMode.CLOSED:
            decision = IntroductionDecision(
                accepted=False, reason=RefusalReason.ADMISSION_CLOSED
            )
            return AdmissionRequest(
                applicant=applicant.peer_id,
                introducer=None,
                decision=decision,
                respond_at=time,
            )
        if mode in (BootstrapMode.OPEN, BootstrapMode.FIXED_CREDIT):
            decision = IntroductionDecision(accepted=True)
            return AdmissionRequest(
                applicant=applicant.peer_id,
                introducer=None,
                decision=decision,
                respond_at=time,
            )
        # Lending mode: the full introduction protocol.
        decision = self._decide_introduction(applicant, introducer)
        request = self.registry.open_request(
            applicant=applicant.peer_id,
            introducer=introducer.peer_id if introducer is not None else None,
            decision=decision,
            time=time,
        )
        return AdmissionRequest(
            applicant=applicant.peer_id,
            introducer=request.introducer,
            decision=decision,
            respond_at=request.respond_at,
        )

    def _decide_introduction(
        self, applicant: Peer, introducer: Peer | None
    ) -> IntroductionDecision:
        """The introducer's deliberation, following §3 of the paper."""
        if introducer is None:
            return IntroductionDecision(
                accepted=False, reason=RefusalReason.NO_INTRODUCER
            )
        if not self.lending.can_lend(introducer.peer_id):
            return IntroductionDecision(
                accepted=False, reason=RefusalReason.INSUFFICIENT_REPUTATION
            )
        policy = introducer.introducer_policy
        if policy is None:
            return IntroductionDecision(
                accepted=False, reason=RefusalReason.SELECTIVE_REFUSAL
            )
        willing = policy.is_willing(applicant.behavior, self.rng)
        if not willing:
            return IntroductionDecision(
                accepted=False, reason=RefusalReason.SELECTIVE_REFUSAL
            )
        return IntroductionDecision(accepted=True)

    # ------------------------------------------------------------------ #
    # Phase 2: the waiting period elapses                                  #
    # ------------------------------------------------------------------ #
    def resolve(self, request: AdmissionRequest, time: float) -> AdmissionResult:
        """Apply the decision of ``request`` once its response time arrives."""
        mode = self.params.bootstrap_mode
        applicant_id = request.applicant
        if mode == BootstrapMode.CLOSED:
            return AdmissionResult(
                applicant=applicant_id,
                admitted=False,
                refusal_reason=RefusalReason.ADMISSION_CLOSED,
                time=time,
            )
        if mode in (BootstrapMode.OPEN, BootstrapMode.FIXED_CREDIT):
            return AdmissionResult(applicant=applicant_id, admitted=True, time=time)

        try:
            intro = self.registry.resolve(applicant_id, time)
        except DuplicateIntroductionError:
            # The score managers noticed two introductions for the same peer:
            # zero its reputation and refuse admission.
            self.lending.sanction(applicant_id, time)
            return AdmissionResult(
                applicant=applicant_id,
                admitted=False,
                refusal_reason=RefusalReason.DUPLICATE_REQUEST,
                time=time,
            )
        if not intro.accepted:
            return AdmissionResult(
                applicant=applicant_id,
                admitted=False,
                introducer=intro.introducer,
                refusal_reason=intro.decision.reason,
                time=time,
            )
        # A re-check at response time: the introducer may have lost reputation
        # while the waiting period ran (e.g. other lends, failed audits).
        assert intro.introducer is not None
        if not self.lending.can_lend(intro.introducer):
            return AdmissionResult(
                applicant=applicant_id,
                admitted=False,
                introducer=intro.introducer,
                refusal_reason=RefusalReason.INSUFFICIENT_REPUTATION,
                time=time,
            )
        contract = self.lending.lend(
            introducer=intro.introducer,
            entrant=applicant_id,
            time=time,
            reference=intro.request_id,
        )
        return AdmissionResult(
            applicant=applicant_id,
            admitted=True,
            introducer=intro.introducer,
            contract=contract,
            time=time,
        )

    # ------------------------------------------------------------------ #
    # Post-admission standing                                              #
    # ------------------------------------------------------------------ #
    def grant_initial_standing(self, entrant: PeerId, time: float) -> None:
        """Install the mode's initial reputation for a just-admitted entrant.

        * ``LENDING`` — nothing: the entrant's credit is the lend that
          :meth:`resolve` made.
        * ``OPEN`` — ``open_initial_reputation``, installed directly.
        * ``FIXED_CREDIT`` — one ``BOOTSTRAP_CREDIT`` adjustment of
          ``fixed_initial_credit``, which travels the score-manager path of
          lending credits and shows in the store's adjustment counters.
        * ``CLOSED`` — nothing: nobody is ever admitted.
        """
        mode = self.params.bootstrap_mode
        if mode == BootstrapMode.OPEN:
            self.store.set_reputation(
                entrant, self.params.open_initial_reputation, time
            )
        elif mode == BootstrapMode.FIXED_CREDIT:
            self.store.apply_adjustment(
                ReputationAdjustment(
                    kind=AdjustmentKind.BOOTSTRAP_CREDIT,
                    issuer=entrant,
                    subject=entrant,
                    delta=self.params.fixed_initial_credit,
                    time=time,
                )
            )
