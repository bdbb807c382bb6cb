"""The pluggable reputation-backend layer.

:class:`ReputationBackend` is the protocol the simulation engine and its
lending, admission, transaction, metrics, trace and storage code program
against.  It lists exactly the methods those callers invoke on a backend:

* **queries** — ``global_reputation``, ``reputations_for`` (the metrics
  sampler's bulk gather), ``newcomer_reputation``;
* **updates** — ``submit_report_batch`` (the feedback of one transaction),
  ``apply_adjustment`` (lending debits/credits, audit settlements,
  sanctions), ``set_reputation`` (bootstrap installs);
* **membership** — ``membership_changed``, which receives a structured
  :class:`~repro.overlay.membership.MembershipChange` describing the single
  join/leave and the ring arc that moved (so a backend that caches
  assignments moves only the keys of that arc), or ``None`` for an unscoped
  change;
* **state** — ``state_digest`` (trace divergence bisection), and for
  durable persistence ``encode_state`` (the checkpoint's JSON text),
  ``peer_tallies`` (the per-peer table's counts) and ``restore_state``.
  Each backend also has ``export_state``, the snapshot as a dict, which
  ``encode_state`` encodes and ``restore_state`` takes back.

Records are not migrated when a score manager departs; see
:mod:`repro.rocq.store`.

The module also hosts the **scheme registry**: a name → factory mapping that
builds a backend from a :class:`~repro.config.SimulationParameters`.  The
orchestrator holds the scheme *name* (through ``params.reputation_scheme``)
rather than a concrete instance, so every run spec — and therefore the run
cache fingerprint — pins down which backend produced its results.

``rocq`` builds the paper's replicated score-manager store; the remaining
names wrap the baseline systems of this package in
:class:`~repro.reputation.adapters.LogReputationBackend` so EigenTrust,
beta reputation, tit-for-tat credit, complaints-based trust and
positive-only reputation all run inside the full discrete-event simulation
(churn, arrivals, lending, whitewashers, colluders) instead of only against
the synthetic offline trace of :mod:`repro.reputation.comparison`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Protocol, runtime_checkable

from ..config import REPUTATION_SCHEMES, SimulationParameters, parse_reputation_scheme
from ..errors import ConfigurationError
from ..ids import PeerId
from ..overlay.membership import MembershipChange
from ..rocq.protocol import FeedbackReport, ReputationAdjustment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from ..overlay.assignment import ScoreManagerAssignment

__all__ = [
    "ReputationBackend",
    "BackendFactory",
    "register_backend",
    "available_schemes",
    "scheme_catalogue",
    "make_reputation_backend",
]


@runtime_checkable
class ReputationBackend(Protocol):
    """What the simulation engine requires of a reputation system.

    Implementations additionally expose a ``scheme`` string naming the
    registry entry they belong to (kept out of the protocol so structural
    ``isinstance`` checks stay method-based).
    """

    # -- queries -------------------------------------------------------- #
    def global_reputation(self, subject: PeerId) -> float:
        """Current reputation of ``subject`` in [0, 1]."""
        ...

    def reputations_for(self, subjects: Iterable[PeerId]) -> list[float]:
        """``global_reputation`` of each subject, in input order."""
        ...

    def newcomer_reputation(self) -> float:
        """Reputation of a peer the backend has never heard of."""
        ...

    # -- updates -------------------------------------------------------- #
    def submit_report_batch(self, reports: Iterable[FeedbackReport]) -> None:
        """Fold feedback reports in, in order."""
        ...

    def apply_adjustment(self, adjustment: ReputationAdjustment) -> float:
        """Apply a direct adjustment; return the amount actually applied."""
        ...

    def set_reputation(self, subject: PeerId, value: float, time: float = 0.0) -> None:
        """Install an explicit reputation (founders, bootstrap grants)."""
        ...

    # -- membership ----------------------------------------------------- #
    def membership_changed(self, change: MembershipChange | None) -> None:
        """React to one described overlay join/leave.

        ``change`` names the moved peer and the ring arc whose responsibility
        changed hands, so backends that cache per-subject state keyed by ring
        position can update only what that arc holds.  Backends without such
        caches treat this as a no-op; a ``None`` change (no structured
        information) must invalidate everything ring-dependent.
        """
        ...

    # -- state ---------------------------------------------------------- #
    def state_digest(self) -> str:
        """Deterministic digest of the backend's mutable state."""
        ...

    def encode_state(self) -> str:
        """Everything ``state_digest`` hashes, as strict JSON text.

        The text is ``json.dumps(export_state(), sort_keys=True,
        allow_nan=False)``; a non-finite float raises ``ValueError``.
        """
        ...

    def peer_tallies(self) -> dict[PeerId, tuple[int, int]]:
        """``subject -> (reports, adjustments)`` for every subject held."""
        ...

    def restore_state(self, payload: dict[str, Any]) -> None:
        """Rebuild the state an ``export_state`` payload describes."""
        ...


#: A factory builds a backend from resolved parameters plus the overlay's
#: score-manager assignment (``None`` for backends that do not replicate).
BackendFactory = Callable[
    [SimulationParameters, "ScoreManagerAssignment | None"], ReputationBackend
]

_FACTORIES: dict[str, BackendFactory] = {}


def register_backend(scheme: str) -> Callable[[BackendFactory], BackendFactory]:
    """Class/function decorator registering a factory under ``scheme``."""

    def decorator(factory: BackendFactory) -> BackendFactory:
        _FACTORIES[scheme] = factory
        return factory

    return decorator


#: One-line description per scheme, surfaced by the unified catalogue
#: (``python -m repro catalogue schemes``) alongside the scenario, adversary
#: and experiment registries.
_DESCRIPTIONS: dict[str, str] = {
    "rocq": "the paper's scheme: replicated score managers, credibility-weighted",
    "eigentrust": "EigenTrust global trust via power iteration over the report log",
    "beta": "beta reputation: two-sided Bayesian feedback counts",
    "tit_for_tat": "bilateral tit-for-tat credit balances (BitTorrent-style)",
    "complaints": "complaints-based trust: only negative feedback counts",
    "positive_only": "positive-only feedback totals (eBay-style)",
}


def available_schemes() -> tuple[str, ...]:
    """Every scheme name a backend factory is registered for."""
    return tuple(_FACTORIES)


def scheme_catalogue() -> dict[str, str]:
    """Name → one-line description for every registered backend factory."""
    return {name: _DESCRIPTIONS.get(name, name) for name in _FACTORIES}


def make_reputation_backend(
    params: SimulationParameters,
    assignment: "ScoreManagerAssignment | None" = None,
) -> ReputationBackend:
    """Build the backend ``params.reputation_scheme`` names.

    ``assignment`` is required by replicated backends (``rocq``); the
    log-based baselines ignore it.
    """
    scheme = parse_reputation_scheme(params.reputation_scheme)
    factory = _FACTORIES.get(scheme)
    if factory is None:  # pragma: no cover - config validation catches first
        raise ConfigurationError(
            f"no backend factory registered for scheme {scheme!r}; "
            f"known: {sorted(_FACTORIES)}"
        )
    return factory(params, assignment)


# --------------------------------------------------------------------- #
# Built-in factories                                                      #
# --------------------------------------------------------------------- #
@register_backend("rocq")
def _make_rocq(
    params: SimulationParameters, assignment: "ScoreManagerAssignment | None"
) -> ReputationBackend:
    from ..rocq.store import ReputationStore

    if assignment is None:
        raise ConfigurationError(
            "the rocq backend replicates records across score managers and "
            "needs the overlay's ScoreManagerAssignment"
        )
    return ReputationStore(
        assignment=assignment,
        initial_credibility=params.rocq_initial_credibility,
        credibility_gain=params.rocq_credibility_gain,
        opinion_smoothing=params.rocq_opinion_smoothing,
        use_credibility=params.rocq_use_credibility,
        use_quality=params.rocq_use_quality,
    )


@register_backend("eigentrust")
def _make_eigentrust(
    params: SimulationParameters, assignment: "ScoreManagerAssignment | None"
) -> ReputationBackend:
    from .adapters import LogReputationBackend
    from .eigentrust import EigenTrust

    # Power iteration is global work: recompute the score table every 50
    # reports (periodic recomputation is how deployed EigenTrust runs too).
    return LogReputationBackend(EigenTrust(), scheme="eigentrust", refresh_every=50)


@register_backend("beta")
def _make_beta(
    params: SimulationParameters, assignment: "ScoreManagerAssignment | None"
) -> ReputationBackend:
    from .adapters import LogReputationBackend
    from .beta import BetaReputation

    return LogReputationBackend(BetaReputation(), scheme="beta")


@register_backend("tit_for_tat")
def _make_tit_for_tat(
    params: SimulationParameters, assignment: "ScoreManagerAssignment | None"
) -> ReputationBackend:
    from .adapters import LogReputationBackend
    from .tit_for_tat import TitForTatCredit

    return LogReputationBackend(
        TitForTatCredit(), scheme="tit_for_tat", refresh_every=25
    )


@register_backend("complaints")
def _make_complaints(
    params: SimulationParameters, assignment: "ScoreManagerAssignment | None"
) -> ReputationBackend:
    from .adapters import LogReputationBackend
    from .complaints import ComplaintsBasedTrust

    return LogReputationBackend(ComplaintsBasedTrust(), scheme="complaints")


@register_backend("positive_only")
def _make_positive_only(
    params: SimulationParameters, assignment: "ScoreManagerAssignment | None"
) -> ReputationBackend:
    from .adapters import LogReputationBackend
    from .positive_only import PositiveOnlyReputation

    return LogReputationBackend(PositiveOnlyReputation(), scheme="positive_only")


# Every scheme the configuration layer accepts must be buildable.
assert set(REPUTATION_SCHEMES) == set(_FACTORIES), (
    "config.REPUTATION_SCHEMES and the backend registry drifted apart: "
    f"{sorted(REPUTATION_SCHEMES)} vs {sorted(_FACTORIES)}"
)
