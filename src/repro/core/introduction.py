"""The introduction protocol.

§2 of the paper ("Multiple introduction requests") specifies the protocol in
detail:

* a new peer asks **one** existing peer for an introduction;
* a waiting period ``T_w`` must elapse between the request and the response,
  whatever the decision, so a new peer cannot bombard the system with
  requests;
* the introduction message carries the identities of both parties and a
  unique id to prevent duplicate requests;
* if the new peer manages to obtain **two** concurrent introductions (by
  asking a second peer before hearing back from the first), its score
  managers detect the duplicate, reset its reputation to zero and may flag it
  as malicious.

:class:`IntroductionRegistry` owns all of that bookkeeping; the decision
itself (willing or not) is made by the admission controller using the
introducer's policy, and stored on the :class:`IntroductionRequest` so it can
be applied when the waiting period expires.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from ..errors import DuplicateIntroductionError, WaitingPeriodError
from ..ids import PeerId

__all__ = [
    "RefusalReason",
    "IntroductionDecision",
    "IntroductionRequest",
    "IntroductionRegistry",
]


class RefusalReason(str, Enum):
    """Why an applicant was not admitted.

    The paper's Figure 4 and Figure 6 break refusals down into "entry refused
    due to introducer reputation" and "entry refused to uncooperative peer"
    (a selective introducer's judgment); the remaining members cover the
    no-member corner case, the duplicate-introduction sanction and the closed
    baseline.
    """

    NO_INTRODUCER = "no_introducer"
    INSUFFICIENT_REPUTATION = "insufficient_reputation"
    SELECTIVE_REFUSAL = "selective_refusal"
    DUPLICATE_REQUEST = "duplicate_request"
    ADMISSION_CLOSED = "admission_closed"


@dataclass(frozen=True, slots=True)
class IntroductionDecision:
    """Outcome of the introducer's deliberation (made at request time)."""

    accepted: bool
    reason: RefusalReason | None = None

    def __post_init__(self) -> None:
        if self.accepted and self.reason is not None:
            raise ValueError("an accepted decision cannot carry a refusal reason")
        if not self.accepted and self.reason is None:
            raise ValueError("a refusal must carry a reason")


@dataclass(slots=True)
class IntroductionRequest:
    """One introduction request and its (pending) resolution."""

    request_id: str
    applicant: PeerId
    introducer: PeerId | None
    respond_at: float
    decision: IntroductionDecision

    @property
    def accepted(self) -> bool:
        """Whether the introducer agreed (meaningful even before resolution)."""
        return self.decision.accepted


@dataclass
class IntroductionRegistry:
    """Tracks introduction requests, waiting periods and duplicate grants."""

    waiting_period: float
    _counter: "itertools.count[int]" = field(default_factory=itertools.count)
    _pending_by_applicant: dict[PeerId, IntroductionRequest] = field(default_factory=dict)
    _granted_applicants: set[PeerId] = field(default_factory=set)
    _next_request_allowed: dict[PeerId, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Request lifecycle                                                    #
    # ------------------------------------------------------------------ #
    def open_request(
        self,
        applicant: PeerId,
        introducer: PeerId | None,
        decision: IntroductionDecision,
        time: float,
    ) -> IntroductionRequest:
        """Register a new introduction request made at ``time``.

        Raises
        ------
        WaitingPeriodError
            If the applicant already has a request whose waiting period has
            not elapsed (the protocol forbids a second request before the
            response to the first arrives).
        """
        ready_at = self._next_request_allowed.get(applicant)
        if ready_at is not None and time < ready_at:
            raise WaitingPeriodError(applicant, ready_at, time)
        request = IntroductionRequest(
            request_id=f"intro-{next(self._counter)}",
            applicant=applicant,
            introducer=introducer,
            respond_at=time + self.waiting_period,
            decision=decision,
        )
        self._pending_by_applicant[applicant] = request
        self._next_request_allowed[applicant] = request.respond_at
        return request

    def resolve(self, applicant: PeerId, time: float) -> IntroductionRequest:
        """Mark the applicant's pending request as answered.

        Raises
        ------
        DuplicateIntroductionError
            If the applicant was already granted an introduction previously —
            the score managers have received two introductions for the same
            peer and must sanction it.
        """
        request = self._pending_by_applicant.pop(applicant)
        if request.accepted:
            if applicant in self._granted_applicants:
                raise DuplicateIntroductionError(applicant)
            self._granted_applicants.add(applicant)
        return request

    def pending_request(self, applicant: PeerId) -> IntroductionRequest | None:
        """The applicant's unresolved request, if any."""
        return self._pending_by_applicant.get(applicant)

    def has_been_granted(self, applicant: PeerId) -> bool:
        """Whether the applicant has already received an introduction."""
        return applicant in self._granted_applicants

    def can_request_at(self, applicant: PeerId, time: float) -> bool:
        """Whether the applicant may open a new request at ``time``."""
        ready_at = self._next_request_allowed.get(applicant)
        return ready_at is None or time >= ready_at

    # ------------------------------------------------------------------ #
    # Introspection                                                        #
    # ------------------------------------------------------------------ #
    def pending_requests(self) -> list[IntroductionRequest]:
        """All currently unresolved requests (ordered by response time)."""
        return sorted(self._pending_by_applicant.values(), key=lambda r: r.respond_at)

    def granted_count(self) -> int:
        """Number of applicants that received an introduction."""
        return len(self._granted_applicants)
