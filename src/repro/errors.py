"""Exception hierarchy for the reputation-lending reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause while still being able
to distinguish configuration problems from protocol violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A simulation or system parameter is out of its legal range."""


class UnknownPeerError(ReproError):
    """An operation referenced a peer identifier that is not registered."""

    def __init__(self, peer_id: int) -> None:
        super().__init__(f"unknown peer id: {peer_id!r}")
        self.peer_id = peer_id


class DuplicateIntroductionError(ReproError):
    """A new peer obtained (or requested) more than one concurrent introduction.

    The paper treats this as an attempt to gain unfair advantage: the score
    managers reset the offender's reputation to zero and may flag it as
    malicious.  The library signals the condition with this exception so the
    admission layer can apply the punishment.
    """

    def __init__(self, peer_id: int) -> None:
        super().__init__(
            f"peer {peer_id!r} received multiple concurrent introductions"
        )
        self.peer_id = peer_id


class IntroductionRefusedError(ReproError):
    """An introduction request was refused by the prospective introducer."""

    def __init__(self, introducer_id: int, applicant_id: int, reason: str) -> None:
        super().__init__(
            f"introducer {introducer_id} refused applicant {applicant_id}: {reason}"
        )
        self.introducer_id = introducer_id
        self.applicant_id = applicant_id
        self.reason = reason


class InsufficientReputationError(ReproError):
    """An introducer's reputation is below the minimum required to lend."""

    def __init__(self, introducer_id: int, reputation: float, required: float) -> None:
        super().__init__(
            f"introducer {introducer_id} has reputation {reputation:.4f} "
            f"but {required:.4f} is required to introduce a peer"
        )
        self.introducer_id = introducer_id
        self.reputation = reputation
        self.required = required


class WaitingPeriodError(ReproError):
    """A new peer issued an introduction request before its waiting period ended."""

    def __init__(self, peer_id: int, ready_at: float, now: float) -> None:
        super().__init__(
            f"peer {peer_id} must wait until t={ready_at:g} before requesting "
            f"another introduction (now t={now:g})"
        )
        self.peer_id = peer_id
        self.ready_at = ready_at
        self.now = now


class PersistenceError(ReproError):
    """A durable-store operation failed or was handed inconsistent state.

    Raised by :mod:`repro.storage` (unknown store URL, payload that is not
    valid JSON, digest mismatch after a restore) and by backend
    ``restore_state`` implementations handed a snapshot they cannot apply.
    """


class ProtocolError(ReproError):
    """A message or state transition violated the lending protocol."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class EmptyPopulationError(SimulationError):
    """An operation required at least one eligible peer but none exist."""
