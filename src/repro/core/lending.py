"""Lending accounting: stakes, credits, audits, rewards and penalties.

:class:`LendingManager` is the bookkeeping heart of the paper's mechanism.
It talks to the ROCQ :class:`~repro.rocq.store.ReputationStore` exclusively
through :class:`~repro.rocq.protocol.ReputationAdjustment` messages — the
same messages the introducer's and entrant's score managers would exchange in
a deployment — and keeps one :class:`LendingContract` per outstanding
introduction so the stake can be settled when the audit fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import SimulationParameters
from ..ids import PeerId
from ..reputation.backend import ReputationBackend
from ..rocq.protocol import AdjustmentKind, ReputationAdjustment
from .audit import AuditOutcome, AuditResult, evaluate_audit

__all__ = ["LendingContract", "LendingStats", "LendingManager"]


@dataclass(slots=True)
class LendingContract:
    """An open introduction: who vouched for whom, and for how much."""

    entrant: PeerId
    introducer: PeerId
    amount: float
    #: Transactions the entrant still has to complete before the audit.
    transactions_until_audit: int
    settled: bool = False

    def note_transaction(self) -> bool:
        """Count one completed transaction; return True when the audit is due."""
        if self.settled:
            return False
        if self.transactions_until_audit > 0:
            self.transactions_until_audit -= 1
        return self.transactions_until_audit == 0


@dataclass
class LendingStats:
    """Aggregate counters describing lending activity in a run."""

    introductions_granted: int = 0
    audits_passed: int = 0
    audits_failed: int = 0
    total_reputation_lent: float = 0.0
    total_rewards_paid: float = 0.0
    total_stakes_lost: float = 0.0
    sanctions_applied: int = 0

    @property
    def audits_settled(self) -> int:
        """Number of contracts settled so far."""
        return self.audits_passed + self.audits_failed


@dataclass
class LendingManager:
    """Implements the lend / audit / settle cycle over the reputation store."""

    store: ReputationBackend
    params: SimulationParameters
    stats: LendingStats = field(default_factory=LendingStats)
    _contracts: dict[PeerId, LendingContract] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Eligibility                                                          #
    # ------------------------------------------------------------------ #
    def can_lend(self, introducer: PeerId) -> bool:
        """Whether ``introducer`` currently holds enough reputation to lend.

        The paper forbids peers below ``minIntroRep`` from introducing anyone,
        which both keeps uncooperative/new peers from vouching and guarantees
        reputations never go negative.
        """
        reputation = self.store.global_reputation(introducer)
        return reputation >= self.params.effective_min_intro_reputation()

    # ------------------------------------------------------------------ #
    # Lending                                                              #
    # ------------------------------------------------------------------ #
    def lend(
        self, introducer: PeerId, entrant: PeerId, time: float, reference: str = ""
    ) -> LendingContract:
        """Stake ``introAmt`` of the introducer's reputation on the entrant.

        Issues the two adjustment messages of the protocol — a debit against
        the introducer's score managers and a credit to the entrant's — and
        opens the contract that the audit will later settle.
        """
        amount = self.params.intro_amount
        self.store.apply_adjustment(
            ReputationAdjustment(
                kind=AdjustmentKind.LEND_DEBIT,
                issuer=introducer,
                subject=introducer,
                delta=-amount,
                time=time,
                reference=reference,
            )
        )
        self.store.apply_adjustment(
            ReputationAdjustment(
                kind=AdjustmentKind.LEND_CREDIT,
                issuer=introducer,
                subject=entrant,
                delta=amount,
                time=time,
                reference=reference,
            )
        )
        contract = LendingContract(
            entrant=entrant,
            introducer=introducer,
            amount=amount,
            transactions_until_audit=self.params.audit_transactions,
        )
        self._contracts[entrant] = contract
        self.stats.introductions_granted += 1
        self.stats.total_reputation_lent += amount
        return contract

    def contract_for(self, entrant: PeerId) -> LendingContract | None:
        """The contract of ``entrant``, settled or not, if any."""
        return self._contracts.get(entrant)

    def outstanding_contracts(self) -> list[LendingContract]:
        """All contracts not yet settled."""
        return [c for c in self._contracts.values() if not c.settled]

    # ------------------------------------------------------------------ #
    # Audits                                                               #
    # ------------------------------------------------------------------ #
    def note_transaction(self, entrant: PeerId, time: float) -> AuditResult | None:
        """Count one transaction of ``entrant``; settle the audit when due."""
        contract = self._contracts.get(entrant)
        if contract is None or contract.settled:
            return None
        if contract.note_transaction():
            return self.settle(entrant, time)
        return None

    def settle(self, entrant: PeerId, time: float) -> AuditResult | None:
        """Run the audit for ``entrant`` and settle its contract."""
        contract = self._contracts.get(entrant)
        if contract is None or contract.settled:
            return None
        reputation = self.store.global_reputation(entrant)
        outcome = evaluate_audit(reputation, self.params.audit_pass_threshold)
        returned = 0.0
        deducted = 0.0
        if outcome == AuditOutcome.PASSED:
            returned = self.store.apply_adjustment(
                ReputationAdjustment(
                    kind=AdjustmentKind.AUDIT_RETURN,
                    issuer=entrant,
                    subject=contract.introducer,
                    delta=contract.amount + self.params.reward_amount,
                    time=time,
                )
            )
            self.stats.audits_passed += 1
            self.stats.total_rewards_paid += self.params.reward_amount
        else:
            # The introducer's stake is simply never returned; the entrant is
            # additionally stripped of the lent amount (floored at zero).
            deducted = -self.store.apply_adjustment(
                ReputationAdjustment(
                    kind=AdjustmentKind.AUDIT_PENALTY,
                    issuer=contract.introducer,
                    subject=entrant,
                    delta=-contract.amount,
                    time=time,
                )
            )
            self.stats.audits_failed += 1
            self.stats.total_stakes_lost += contract.amount
        contract.settled = True
        return AuditResult(
            entrant=entrant,
            introducer=contract.introducer,
            outcome=outcome,
            entrant_reputation=reputation,
            time=time,
            returned_to_introducer=returned,
            deducted_from_entrant=deducted,
        )

    # ------------------------------------------------------------------ #
    # Sanctions                                                            #
    # ------------------------------------------------------------------ #
    def sanction(self, peer: PeerId, time: float, reference: str = "") -> None:
        """Reset a peer's reputation to zero (duplicate-introduction attack).

        Implemented as a full-range negative adjustment so it reaches every
        score-manager replica through the normal message path.
        """
        self.store.apply_adjustment(
            ReputationAdjustment(
                kind=AdjustmentKind.SANCTION,
                issuer=peer,
                subject=peer,
                delta=-1.0,
                time=time,
                reference=reference,
            )
        )
        self.stats.sanctions_applied += 1
