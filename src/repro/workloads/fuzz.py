"""The seeded scenario fuzzer: random-but-valid operating points.

The scenario registry holds a fixed list of hand-named presets; the fuzzer
is the other end of the spectrum — it *composes* arrivals × topology ×
behaviour mix × bootstrap economics × reputation scheme × AdversarySpec
into random :class:`~repro.config.SimulationParameters` that are valid by
construction (every draw respects the config layer's validation rules),
runs each one, and checks property-based invariants that must hold for
**any** valid configuration:

* **score clamping** — every queryable reputation stays within [0, 1];
* **admission monotonicity** — per behaviour class, admissions never
  exceed arrivals, and the service/refusal accounting adds up;
* **conservation of lent reputation** — the lending ledger's totals are
  exactly ``grants x intro_amount`` / ``passes x reward_amount`` /
  ``failures x intro_amount``;
* **horizon** — the clock ends exactly at the configured transaction count.

Scenario *i* of a batch draws everything from
``derive_seed(config.seed, "fuzz", i)``, so a violating scenario reproduces
from its (seed, index) coordinates alone.

The generator dimensions are a registry (``fuzz-generators`` in the
catalogue), so new dimensions are one decorated function away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..adversary import adversary_knobs, available_adversaries
from ..config import (
    REPUTATION_SCHEMES,
    AdversarySpec,
    SimulationParameters,
)
from ..errors import ConfigurationError
from ..metrics.summary import RunSummary, summary_digest
from ..parallel.specs import params_fingerprint
from ..rng import Stream, derive_seed
from ..sim.engine import Simulation

__all__ = [
    "FuzzConfig",
    "FuzzScenario",
    "InvariantViolation",
    "FuzzResult",
    "FuzzReport",
    "register_fuzz_generator",
    "available_fuzz_generators",
    "fuzz_scenario",
    "check_invariants",
    "run_fuzz_scenario",
    "run_fuzz_batch",
]

#: Float-comparison slack for ledger identities accumulated over many adds.
_TOLERANCE = 1e-6


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one fuzzing batch.

    ``max_transactions`` / ``max_initial_peers`` cap the drawn horizon so a
    batch stays fast; ``scheme`` pins every scenario to one reputation
    scheme (``None`` = draw a random scheme per scenario).
    """

    seed: int = 1
    count: int = 25
    scheme: str | None = None
    max_transactions: int = 1200
    max_initial_peers: int = 60

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError(f"fuzz count must be >= 1, got {self.count}")
        if self.max_transactions < 200:
            raise ConfigurationError("fuzz max_transactions must be >= 200")
        if self.max_initial_peers < 8:
            raise ConfigurationError("fuzz max_initial_peers must be >= 8")


@dataclass(frozen=True)
class FuzzScenario:
    """One generated operating point, reproducible from (seed, index)."""

    label: str
    seed: int
    index: int
    params: SimulationParameters


@dataclass(frozen=True)
class InvariantViolation:
    """One broken property: which invariant, and what was observed."""

    invariant: str
    detail: str

    def describe(self) -> str:
        return f"{self.invariant}: {self.detail}"


# --------------------------------------------------------------------- #
# Generator registry                                                      #
# --------------------------------------------------------------------- #

#: A generator mutates the parameter draft for its dimension, drawing from
#: the scenario's dedicated stream.  Registration order is execution order
#: (later generators may read fields earlier ones set).
FuzzGenerator = Callable[[Stream, dict, FuzzConfig], None]

_GENERATORS: dict[str, FuzzGenerator] = {}
_DESCRIPTIONS: dict[str, str] = {}


def register_fuzz_generator(
    name: str, description: str = ""
) -> Callable[[FuzzGenerator], FuzzGenerator]:
    """Decorator registering one fuzz dimension under ``name``."""

    def decorator(generator: FuzzGenerator) -> FuzzGenerator:
        doc = (generator.__doc__ or "").strip()
        _GENERATORS[name] = generator
        _DESCRIPTIONS[name] = description or (doc.splitlines()[0] if doc else name)
        return generator

    return decorator


def available_fuzz_generators() -> dict[str, str]:
    """Name → one-line description for every registered generator."""
    return dict(_DESCRIPTIONS)


@register_fuzz_generator("horizon", "transaction count, community size, sampling")
def _gen_horizon(rng: Stream, draft: dict, config: FuzzConfig) -> None:
    draft["num_transactions"] = rng.integers(200, config.max_transactions + 1)
    draft["num_initial_peers"] = rng.integers(8, config.max_initial_peers + 1)
    draft["num_score_managers"] = rng.integers(1, 9)
    draft["sample_interval"] = rng.choice([50.0, 100.0, 250.0, 500.0])
    draft["seed"] = rng.integers(0, 2**31)


@register_fuzz_generator("topology", "overlay topology family and shape")
def _gen_topology(rng: Stream, draft: dict, config: FuzzConfig) -> None:
    draft["topology"] = rng.choice(["random", "scale_free"])
    draft["scale_free_exponent"] = rng.uniform(0.5, 2.5)
    draft["scale_free_attachment"] = rng.integers(1, 5)


@register_fuzz_generator("arrivals", "arrival rate, behaviour mix, waiting period")
def _gen_arrivals(rng: Stream, draft: dict, config: FuzzConfig) -> None:
    draft["arrival_rate"] = 10.0 ** rng.uniform(-2.3, -0.8)
    draft["fraction_uncooperative"] = rng.uniform(0.0, 0.9)
    draft["fraction_naive"] = rng.uniform(0.0, 1.0)
    draft["selective_error_rate"] = rng.uniform(0.0, 0.5)
    draft["waiting_period"] = rng.choice([0.0, 10.0, 50.0, 200.0])


@register_fuzz_generator("behaviour", "service qualities and ROCQ opinion knobs")
def _gen_behaviour(rng: Stream, draft: dict, config: FuzzConfig) -> None:
    draft["cooperative_service_quality"] = rng.uniform(0.6, 1.0)
    draft["uncooperative_service_quality"] = rng.uniform(0.0, 0.4)
    draft["rocq_use_credibility"] = rng.random() < 0.8
    draft["rocq_use_quality"] = rng.random() < 0.8
    draft["rocq_opinion_smoothing"] = rng.uniform(0.05, 0.9)


@register_fuzz_generator("bootstrap", "bootstrap mode and lending economics")
def _gen_bootstrap(rng: Stream, draft: dict, config: FuzzConfig) -> None:
    modes = ["lending", "open", "fixed_credit", "closed"]
    draft["bootstrap_mode"] = rng.choice(modes, p=[0.55, 0.2, 0.15, 0.1])
    intro = rng.uniform(0.05, 0.5)
    draft["intro_amount"] = intro
    draft["reward_amount"] = rng.uniform(0.0, 0.2)
    draft["audit_transactions"] = rng.integers(1, 41)
    # The config layer requires the admission bar to be at least the lent
    # amount; drawing in [intro, 1] (or leaving the default rule) keeps
    # every draft valid by construction.
    if rng.random() < 0.5:
        draft["min_intro_reputation"] = rng.uniform(intro, 1.0)
    else:
        draft["min_intro_reputation"] = None
    draft["fixed_initial_credit"] = rng.uniform(0.0, 1.0)
    draft["open_initial_reputation"] = rng.uniform(0.0, 1.0)


@register_fuzz_generator("scheme", "reputation scheme under test")
def _gen_scheme(rng: Stream, draft: dict, config: FuzzConfig) -> None:
    if config.scheme is not None:
        draft["reputation_scheme"] = config.scheme
    else:
        draft["reputation_scheme"] = rng.choice(list(REPUTATION_SCHEMES))


@register_fuzz_generator("adversary", "attack strategy, schedule and knobs")
def _gen_adversary(rng: Stream, draft: dict, config: FuzzConfig) -> None:
    if rng.random() < 0.35:
        draft["adversary"] = None
        return
    name = rng.choice(sorted(available_adversaries()))
    horizon = float(draft["num_transactions"])
    options: dict[str, float] = {}
    for knob in adversary_knobs(name):
        if rng.random() < 0.5:
            continue  # keep the strategy's default for this knob
        if knob == "waves":
            options[knob] = float(rng.integers(1, 5))
        elif knob == "oscillate":
            options[knob] = float(rng.integers(0, 2))
        elif "threshold" in knob:
            options[knob] = rng.uniform(0.05, 0.6)
        else:  # qualities, reputations: all live in [0, 1]
            options[knob] = rng.uniform(0.0, 1.0)
    draft["adversary"] = AdversarySpec(
        name=name,
        count=rng.integers(1, 7),
        start_time=rng.uniform(0.0, horizon / 2.0),
        interval=rng.uniform(max(1.0, horizon / 20.0), horizon / 4.0),
        options=tuple(sorted(options.items())),
    )


# --------------------------------------------------------------------- #
# Scenario generation                                                     #
# --------------------------------------------------------------------- #
def fuzz_scenario(config: FuzzConfig, index: int) -> FuzzScenario:
    """Generate scenario ``index`` of a batch, deterministically."""
    scenario_seed = derive_seed(config.seed, "fuzz", index)
    rng = Stream(scenario_seed)
    draft: dict[str, Any] = {}
    for generator in _GENERATORS.values():
        generator(rng, draft, config)
    # Constructing the parameters runs the config layer's full validation —
    # a draft that does not survive it is a fuzzer bug, not a finding.
    params = SimulationParameters(**draft)
    return FuzzScenario(
        label=f"fuzz-{config.seed}-{index}",
        seed=scenario_seed,
        index=index,
        params=params,
    )


# --------------------------------------------------------------------- #
# Invariants                                                              #
# --------------------------------------------------------------------- #
def check_invariants(sim: Simulation, summary: RunSummary) -> list[InvariantViolation]:
    """Property checks that must hold after **any** valid run."""
    violations: list[InvariantViolation] = []
    params = sim.params

    # Score clamping: every peer the run ever created stays within [0, 1].
    for peer in sim.population:
        value = sim.store.global_reputation(peer.peer_id)
        if not 0.0 <= value <= 1.0:
            violations.append(
                InvariantViolation(
                    "score_clamping",
                    f"peer {peer.peer_id} has reputation {value!r} outside [0, 1]",
                )
            )

    # Admission monotonicity and accounting.
    for label, arrived, admitted in (
        ("cooperative", summary.arrivals_cooperative, summary.admitted_cooperative),
        (
            "uncooperative",
            summary.arrivals_uncooperative,
            summary.admitted_uncooperative,
        ),
    ):
        if admitted > arrived:
            violations.append(
                InvariantViolation(
                    "admission_monotonicity",
                    f"{label}: admitted {admitted} > arrivals {arrived}",
                )
            )
    attempted = summary.transactions_attempted
    served = summary.transactions_served
    denied = summary.transactions_denied
    if served + denied != attempted:
        violations.append(
            InvariantViolation(
                "admission_monotonicity",
                f"transactions: served {served} + denied {denied} != "
                f"attempted {attempted}",
            )
        )

    # Conservation of lent reputation.
    stats = sim.lending.stats
    checks = (
        (
            "total_reputation_lent",
            stats.total_reputation_lent,
            stats.introductions_granted * params.intro_amount,
        ),
        (
            "total_rewards_paid",
            stats.total_rewards_paid,
            stats.audits_passed * params.reward_amount,
        ),
        (
            "total_stakes_lost",
            stats.total_stakes_lost,
            stats.audits_failed * params.intro_amount,
        ),
    )
    for name, actual, expected in checks:
        if abs(actual - expected) > _TOLERANCE:
            violations.append(
                InvariantViolation(
                    "lending_conservation",
                    f"{name} = {actual!r}, expected {expected!r}",
                )
            )
    if stats.audits_settled > stats.introductions_granted:
        violations.append(
            InvariantViolation(
                "lending_conservation",
                f"audits settled ({stats.audits_settled}) exceed "
                f"introductions granted ({stats.introductions_granted})",
            )
        )

    # Horizon: the clock ends exactly at the configured transaction count.
    if sim.clock.now != float(params.num_transactions):
        violations.append(
            InvariantViolation(
                "horizon",
                f"clock ended at {sim.clock.now!r}, expected "
                f"{float(params.num_transactions)!r}",
            )
        )
    return violations


# --------------------------------------------------------------------- #
# Execution                                                               #
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FuzzResult:
    """Outcome of one fuzzed scenario."""

    scenario: FuzzScenario
    digest: str
    violations: tuple[InvariantViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.scenario.label,
            "seed": self.scenario.seed,
            "index": self.scenario.index,
            "params_fingerprint": params_fingerprint(self.scenario.params),
            "scheme": self.scenario.params.reputation_scheme,
            "adversary": (
                None
                if self.scenario.params.adversary is None
                else self.scenario.params.adversary.name
            ),
            "num_transactions": self.scenario.params.num_transactions,
            "digest": self.digest,
            "violations": [violation.describe() for violation in self.violations],
        }


@dataclass(frozen=True)
class FuzzReport:
    """Everything one fuzzing batch produced."""

    config: FuzzConfig
    results: tuple[FuzzResult, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def violation_count(self) -> int:
        return sum(len(result.violations) for result in self.results)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.config.seed,
            "count": self.config.count,
            "scheme": self.config.scheme,
            "ok": self.ok,
            "violations": self.violation_count,
            "results": [result.to_dict() for result in self.results],
        }


def run_fuzz_scenario(scenario: FuzzScenario) -> FuzzResult:
    """Run one fuzzed scenario and check every invariant against it."""
    sim = Simulation(scenario.params, seed=scenario.seed)
    summary = sim.run()
    violations = check_invariants(sim, summary)
    return FuzzResult(
        scenario=scenario,
        digest=summary_digest(summary),
        violations=tuple(violations),
    )


def run_fuzz_batch(
    config: FuzzConfig,
    progress: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Generate and run a whole batch of fuzzed scenarios.

    Runs serially in-process: the invariants inspect the live simulation
    object (population, lending ledger, backend), not just the summary.
    """
    results = []
    for index in range(config.count):
        scenario = fuzz_scenario(config, index)
        result = run_fuzz_scenario(scenario)
        results.append(result)
        if progress is not None:
            status = "ok" if result.ok else f"{len(result.violations)} violation(s)"
            progress(
                f"{scenario.label}: scheme={scenario.params.reputation_scheme} "
                f"tx={scenario.params.num_transactions} {status}"
            )
    return FuzzReport(config=config, results=tuple(results))
