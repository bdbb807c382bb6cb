"""Simulation parameters (Table 1 of the paper) and validation.

:class:`SimulationParameters` captures every knob the paper's evaluation
turns, with defaults matching Table 1.  A handful of additional knobs that
the paper fixes implicitly (seed, satisfaction noise, ROCQ constants, the
scale-free attachment exponent) are exposed too so the experiments and the
ablation benches can vary them.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from typing import Any, Mapping

from .errors import ConfigurationError

__all__ = [
    "Topology",
    "BootstrapMode",
    "REPUTATION_SCHEMES",
    "parse_reputation_scheme",
    "ADVERSARY_STRATEGIES",
    "parse_adversary_name",
    "AdversarySpec",
    "SimulationParameters",
    "PAPER_DEFAULTS",
]

#: Canonical names of the pluggable reputation backends.  ``rocq`` is the
#: paper's scheme (the replicated score-manager store); the others are the
#: baseline systems from :mod:`repro.reputation` adapted to run inside the
#: full discrete-event simulation.  The registry in
#: :mod:`repro.reputation.backend` must provide a factory for every name
#: listed here (a test keeps the two in sync).
REPUTATION_SCHEMES = (
    "rocq",
    "eigentrust",
    "beta",
    "tit_for_tat",
    "complaints",
    "positive_only",
)

_SCHEME_ALIASES = {
    "eigen_trust": "eigentrust",
    "tft": "tit_for_tat",
    "positive": "positive_only",
    "complaints_based": "complaints",
}


def parse_reputation_scheme(value: str) -> str:
    """Normalise a scheme name, raising on anything the registry cannot build."""
    text = str(value).strip().lower().replace("-", "_")
    text = _SCHEME_ALIASES.get(text, text)
    if text not in REPUTATION_SCHEMES:
        raise ConfigurationError(
            f"unknown reputation scheme: {value!r}; known: {list(REPUTATION_SCHEMES)}"
        )
    return text


#: Canonical names of the pluggable adversary strategies.  The registry in
#: :mod:`repro.adversary` must provide a factory for every name listed here
#: (a test keeps the two in sync, mirroring :data:`REPUTATION_SCHEMES`).
ADVERSARY_STRATEGIES = (
    "sybil_swarm",
    "collusion_ring",
    "slander",
    "whitewash_waves",
    "churn_storm",
)

_ADVERSARY_ALIASES = {
    "sybil": "sybil_swarm",
    "collusion": "collusion_ring",
    "bad_mouthing": "slander",
    "badmouthing": "slander",
    "whitewash": "whitewash_waves",
    "whitewashing": "whitewash_waves",
    "churn": "churn_storm",
}


def parse_adversary_name(value: str) -> str:
    """Normalise an adversary strategy name, raising on unknown names."""
    text = str(value).strip().lower().replace("-", "_")
    text = _ADVERSARY_ALIASES.get(text, text)
    if text not in ADVERSARY_STRATEGIES:
        raise ConfigurationError(
            f"unknown adversary strategy: {value!r}; "
            f"known: {list(ADVERSARY_STRATEGIES)}"
        )
    return text


@dataclass(frozen=True)
class AdversarySpec:
    """Declarative description of one adversary workload.

    The spec is part of :class:`SimulationParameters` — it is validated at
    construction, serialised into the parameter fingerprint (so cached runs
    of different attacks never collide) and resolved into a concrete
    :class:`~repro.adversary.AdversaryStrategy` by the simulation engine.

    Attributes
    ----------
    name:
        Registry name of the strategy (see :data:`ADVERSARY_STRATEGIES`).
    count:
        How many attacker identities the strategy controls (per wave, where
        the strategy is wave-based).
    start_time:
        Simulated time of the first adversary action event.  Initial attacker
        injection happens at setup regardless; ``start_time`` only governs
        the recurring action schedule.
    interval:
        Time units between consecutive adversary action events.
    options:
        Strategy-specific knobs as a sorted tuple of ``(name, value)`` pairs
        (kept a tuple so the spec stays hashable).  Mappings are accepted at
        construction and canonicalised.  Unknown knob names are rejected when
        the strategy is built.
    """

    name: str = "sybil_swarm"
    count: int = 4
    start_time: float = 0.0
    interval: float = 500.0
    options: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", parse_adversary_name(self.name))
        raw = self.options
        if isinstance(raw, Mapping):
            pairs = raw.items()
        else:
            pairs = tuple(raw)
        try:
            canonical = tuple(
                sorted((str(key), float(value)) for key, value in pairs)
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"adversary option values must be numeric: {exc}"
            ) from exc
        object.__setattr__(self, "options", canonical)
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if any field is out of range."""
        if self.count < 1:
            raise ConfigurationError("adversary count must be >= 1")
        if self.start_time < 0:
            raise ConfigurationError("adversary start_time must be >= 0")
        if self.interval <= 0:
            raise ConfigurationError("adversary interval must be > 0")
        seen = set()
        for key, _ in self.options:
            if not key:
                raise ConfigurationError("adversary option names must be non-empty")
            if key in seen:
                raise ConfigurationError(f"duplicate adversary option: {key!r}")
            seen.add(key)

    def option(self, key: str, default: float) -> float:
        """The value of knob ``key``, or ``default`` when unset."""
        for name, value in self.options:
            if name == key:
                return value
        return default

    def with_options(self, **overrides: float) -> "AdversarySpec":
        """Return a copy with the given knobs replaced or added."""
        merged = dict(self.options)
        merged.update({key: float(value) for key, value in overrides.items()})
        return replace(self, options=tuple(sorted(merged.items())))

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation."""
        return {
            "name": self.name,
            "count": self.count,
            "start_time": self.start_time,
            "interval": self.interval,
            "options": {key: value for key, value in self.options},
        }

    @classmethod
    def parse(
        cls, value: "AdversarySpec | str | Mapping[str, Any] | None"
    ) -> "AdversarySpec | None":
        """Coerce ``value`` into a validated spec (``None`` stays ``None``).

        Accepts a ready spec, a bare strategy name (all defaults), or a
        mapping as produced by :meth:`to_dict`.  Unknown mapping keys are
        rejected loudly: a knob placed at the top level instead of under
        ``options`` must not silently run a weaker attack.
        """
        if value is None or isinstance(value, AdversarySpec):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            known = {f.name for f in fields(cls)}
            unknown = sorted(set(value) - known)
            if unknown:
                raise ConfigurationError(
                    f"unknown adversary spec field(s) {unknown}; "
                    f"strategy knobs belong under 'options' "
                    f"(accepted fields: {sorted(known)})"
                )
            return cls(**dict(value))
        raise ConfigurationError(
            f"cannot interpret adversary spec from {type(value).__name__}"
        )


class Topology(str, Enum):
    """Interaction topology used to pick the respondent of each transaction."""

    RANDOM = "random"
    SCALE_FREE = "scale_free"

    @classmethod
    def parse(cls, value: "Topology | str") -> "Topology":
        """Accept either an enum member or its (case-insensitive) name/value."""
        if isinstance(value, Topology):
            return value
        text = str(value).strip().lower().replace("-", "_")
        aliases = {
            "random": cls.RANDOM,
            "uniform": cls.RANDOM,
            "scale_free": cls.SCALE_FREE,
            "scalefree": cls.SCALE_FREE,
            "powerlaw": cls.SCALE_FREE,
            "power_law": cls.SCALE_FREE,
        }
        try:
            return aliases[text]
        except KeyError as exc:
            raise ConfigurationError(f"unknown topology: {value!r}") from exc


class BootstrapMode(str, Enum):
    """How new entrants obtain their initial standing in the community.

    ``LENDING`` is the paper's contribution.  ``OPEN`` admits everyone with a
    neutral reputation (the "without introductions" comparison in §4.1).
    ``FIXED_CREDIT`` models BitTorrent/Scrivener-style systems that grant a
    flat initial credit.  ``CLOSED`` admits nobody (a degenerate baseline used
    in tests).
    """

    LENDING = "lending"
    OPEN = "open"
    FIXED_CREDIT = "fixed_credit"
    CLOSED = "closed"

    @classmethod
    def parse(cls, value: "BootstrapMode | str") -> "BootstrapMode":
        if isinstance(value, BootstrapMode):
            return value
        text = str(value).strip().lower().replace("-", "_")
        try:
            return cls(text)
        except ValueError as exc:
            raise ConfigurationError(f"unknown bootstrap mode: {value!r}") from exc


@dataclass(frozen=True)
class SimulationParameters:
    """All parameters of a simulation run.

    The first block mirrors Table 1 of the paper; the second block exposes
    modelling constants the paper keeps fixed; the third block controls the
    reproduction harness itself (seed, scaling, bootstrap policy).

    Attributes
    ----------
    num_initial_peers:
        ``numInit`` — peers present (all cooperative) at time zero.
    num_transactions:
        ``numTrans`` — simulated time units; exactly one resource transaction
        is scheduled per unit.
    num_score_managers:
        ``numSM`` — score-manager replicas per peer.
    arrival_rate:
        ``lambda`` — Poisson rate of new-peer arrivals per time unit.
    fraction_uncooperative:
        ``f_u`` — fraction of arriving peers that are uncooperative.
    fraction_naive:
        ``f_n`` — fraction of cooperative peers that are naive introducers.
    selective_error_rate:
        ``errSel`` — probability that a selective introducer mistakenly
        introduces an uncooperative applicant.
    topology:
        Interaction topology (random or scale-free).
    waiting_period:
        ``T_w`` — time units between an introduction request and its response.
    audit_transactions:
        ``auditTrans`` — transactions a new entrant completes before its score
        managers audit it and settle the stake.
    intro_amount:
        ``introAmt`` — reputation the introducer lends to the new entrant.
    reward_amount:
        ``rewardAmt`` — reward paid to the introducer after a successful audit.
    min_intro_reputation:
        ``minIntroRep`` — minimum reputation required to introduce a peer.
        ``None`` means "use the paper's rule": a margin above ``intro_amount``
        (see :meth:`effective_min_intro_reputation`).
    """

    # ------------------------------------------------------------------ #
    # Table 1 parameters                                                   #
    # ------------------------------------------------------------------ #
    num_initial_peers: int = 500
    num_transactions: int = 500_000
    num_score_managers: int = 6
    arrival_rate: float = 0.01
    fraction_uncooperative: float = 0.25
    fraction_naive: float = 0.3
    selective_error_rate: float = 0.10
    topology: Topology = Topology.SCALE_FREE
    waiting_period: float = 1000.0
    audit_transactions: int = 20
    intro_amount: float = 0.1
    reward_amount: float = 0.02
    min_intro_reputation: float | None = None

    # ------------------------------------------------------------------ #
    # Modelling constants fixed by the paper                               #
    # ------------------------------------------------------------------ #
    #: Reputation every founding member starts with (cooperative peers tend
    #: towards 1 under ROCQ, so the initial community is fully trusted).
    initial_member_reputation: float = 1.0
    #: Audit passes when the entrant's reputation is at least this value.
    audit_pass_threshold: float = 0.5
    #: Probability that a cooperative peer provides satisfactory service.
    cooperative_service_quality: float = 0.95
    #: Probability that an uncooperative peer provides satisfactory service.
    uncooperative_service_quality: float = 0.05
    #: Exponent of the power-law used for scale-free respondent selection.
    scale_free_exponent: float = 1.0
    #: Number of attachment edges per node in the Barabási–Albert graph.
    scale_free_attachment: int = 2
    #: ROCQ: weight given to a brand-new reporter's credibility.
    rocq_initial_credibility: float = 0.5
    #: ROCQ: learning rate for credibility updates.
    rocq_credibility_gain: float = 0.1
    #: ROCQ: exponential smoothing factor for per-source opinions.
    rocq_opinion_smoothing: float = 0.3
    #: Whether ROCQ aggregation weighs reports by reporter credibility.
    rocq_use_credibility: bool = True
    #: Whether ROCQ aggregation weighs reports by opinion quality.
    rocq_use_quality: bool = True

    # ------------------------------------------------------------------ #
    # Harness controls                                                     #
    # ------------------------------------------------------------------ #
    #: Which reputation backend the simulation runs on (see
    #: :data:`REPUTATION_SCHEMES`).  ``rocq`` is the paper's scheme; the
    #: baseline names swap in the systems from :mod:`repro.reputation` so the
    #: comparative claims can be evaluated under the full dynamics.
    reputation_scheme: str = "rocq"
    #: Optional adversary workload driven alongside the honest dynamics (see
    #: :class:`AdversarySpec` and :mod:`repro.adversary`).  ``None`` — the
    #: default — runs the seed engine's exact behaviour: no adversary events
    #: are scheduled and no extra random draws happen.
    adversary: AdversarySpec | None = None
    bootstrap_mode: BootstrapMode = BootstrapMode.LENDING
    #: Initial credit granted under ``BootstrapMode.FIXED_CREDIT``.
    fixed_initial_credit: float = 0.3
    #: Reputation new entrants start with under ``BootstrapMode.OPEN`` (the
    #: "without introductions" comparison admits everyone at a neutral value).
    open_initial_reputation: float = 0.5
    #: Master seed for all random streams.
    seed: int = 1
    #: How often (in time units) reputation time series are sampled.
    sample_interval: float = 5000.0
    #: Independent repetitions averaged by the experiment harness.
    repeats: int = 10

    # ------------------------------------------------------------------ #
    # Construction helpers                                                 #
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        object.__setattr__(self, "topology", Topology.parse(self.topology))
        object.__setattr__(
            self, "bootstrap_mode", BootstrapMode.parse(self.bootstrap_mode)
        )
        object.__setattr__(
            self,
            "reputation_scheme",
            parse_reputation_scheme(self.reputation_scheme),
        )
        object.__setattr__(self, "adversary", AdversarySpec.parse(self.adversary))
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if any parameter is out of range."""
        if self.num_initial_peers < 1:
            raise ConfigurationError("num_initial_peers must be >= 1")
        if self.num_transactions < 0:
            raise ConfigurationError("num_transactions must be >= 0")
        if self.num_score_managers < 1:
            raise ConfigurationError("num_score_managers must be >= 1")
        if self.arrival_rate < 0:
            raise ConfigurationError("arrival_rate must be >= 0")
        for name in (
            "fraction_uncooperative",
            "fraction_naive",
            "selective_error_rate",
            "audit_pass_threshold",
            "cooperative_service_quality",
            "uncooperative_service_quality",
            "rocq_initial_credibility",
            "rocq_credibility_gain",
            "rocq_opinion_smoothing",
            "initial_member_reputation",
            "fixed_initial_credit",
            "open_initial_reputation",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be within [0, 1], got {value}")
        if not 0.0 < self.intro_amount <= 1.0:
            raise ConfigurationError("intro_amount must be within (0, 1]")
        if self.reward_amount < 0.0 or self.reward_amount > 1.0:
            raise ConfigurationError("reward_amount must be within [0, 1]")
        if self.min_intro_reputation is not None and not (
            0.0 <= self.min_intro_reputation <= 1.0
        ):
            raise ConfigurationError("min_intro_reputation must be within [0, 1]")
        if self.waiting_period < 0:
            raise ConfigurationError("waiting_period must be >= 0")
        if self.audit_transactions < 1:
            raise ConfigurationError("audit_transactions must be >= 1")
        if self.scale_free_attachment < 1:
            raise ConfigurationError("scale_free_attachment must be >= 1")
        if self.scale_free_exponent < 0:
            raise ConfigurationError("scale_free_exponent must be >= 0")
        if self.sample_interval <= 0:
            raise ConfigurationError("sample_interval must be > 0")
        if self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")
        if self.effective_min_intro_reputation() < self.intro_amount:
            raise ConfigurationError(
                "min_intro_reputation must be >= intro_amount so lending can "
                "never drive a reputation below zero"
            )

    # ------------------------------------------------------------------ #
    # Derived values                                                       #
    # ------------------------------------------------------------------ #
    def effective_min_intro_reputation(self) -> float:
        """Minimum reputation an introducer must hold before lending.

        Table 1 expresses ``minIntroRep`` as a function of ``introAmt`` (the
        stake plus a safety margin).  When the user does not override it we
        use ``max(intro_amount + 0.05, 2 * intro_amount)`` capped at 1.0,
        which keeps the invariant ``minIntroRep > introAmt`` the paper relies
        on to stop reputations from going negative.
        """
        if self.min_intro_reputation is not None:
            return self.min_intro_reputation
        return min(1.0, max(self.intro_amount + 0.05, 2.0 * self.intro_amount))

    def expected_arrivals(self) -> float:
        """Expected number of new peers over the whole run."""
        return self.arrival_rate * self.num_transactions

    # ------------------------------------------------------------------ #
    # Convenience API                                                      #
    # ------------------------------------------------------------------ #
    def with_overrides(self, **overrides: Any) -> "SimulationParameters":
        """Return a copy with the given fields replaced (and re-validated)."""
        return replace(self, **overrides)

    def scaled(self, factor: float) -> "SimulationParameters":
        """Return a copy whose run length is scaled by ``factor``.

        Only the horizon (``num_transactions``), the sampling interval and —
        when an adversary is configured — the adversary's action schedule are
        scaled; rates are left untouched so the *density* of arrivals per time
        unit — and therefore the dynamics — stay the same.  Used by the
        benchmark harness to run paper experiments at laptop scale.

        ``factor`` must be finite and positive; anything else (``nan``,
        ``inf``, zero or a negative number) raises
        :class:`~repro.errors.ConfigurationError`.
        """
        if not (math.isfinite(factor) and factor > 0):
            raise ConfigurationError(f"scale must be finite and > 0, got {factor!r}")
        overrides: dict[str, Any] = {
            "num_transactions": max(1, int(round(self.num_transactions * factor))),
            "sample_interval": max(1.0, self.sample_interval * factor),
        }
        if self.adversary is not None:
            overrides["adversary"] = replace(
                self.adversary,
                start_time=self.adversary.start_time * factor,
                interval=max(1.0, self.adversary.interval * factor),
            )
        return self.with_overrides(**overrides)

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-serialisable dictionary of all parameters."""
        data = asdict(self)
        data["topology"] = self.topology.value
        data["bootstrap_mode"] = self.bootstrap_mode.value
        data["adversary"] = (
            self.adversary.to_dict() if self.adversary is not None else None
        )
        return data

    def to_json(self, indent: int = 2) -> str:
        """Serialise the parameters to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationParameters":
        """Build parameters from a mapping, ignoring unknown keys."""
        known = {f.name for f in fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in known}
        return cls(**kwargs)


#: The exact Table 1 operating point of the paper.
PAPER_DEFAULTS = SimulationParameters()
