"""The pluggable adversary layer: protocol, registry, default specs.

:class:`AdversaryStrategy` is what the simulation engine requires of an
attack workload.  A strategy is built from a validated
:class:`~repro.config.AdversarySpec` (carried inside
:class:`~repro.config.SimulationParameters`, and therefore part of every
run-cache fingerprint) and drives the engine exclusively through its public
scenario hooks:

* :meth:`~repro.sim.engine.Simulation.add_member` — inject an attacker
  identity directly into the community (insiders: colluders, slanderers,
  the burning phase of a whitewasher);
* :meth:`~repro.sim.engine.Simulation.inject_arrival` — send an attacker
  identity through the **real admission pipeline** (strangers: sybil
  swarms, the reborn identities of whitewashing waves), so each reputation
  scheme's own newcomer policy decides what the attacker gets;
* :meth:`~repro.sim.engine.Simulation.schedule_departure` — remove an
  identity (whitewashing, churn storms).

The engine calls :meth:`AdversaryStrategy.install` once at setup time and
:meth:`AdversaryStrategy.act` on every ``ADVERSARY`` event of the spec's
deterministic ``start_time``/``interval`` schedule.  Any randomness a
strategy needs must come from ``sim.streams.stream("adversary")`` — a
seed-derived stream that exists only when an adversary is configured — so
runs stay bit-identical for any job count, and the
``adversary=None`` path stays byte-identical to the seed engine.

The module also hosts the **strategy registry**, a name → factory mapping
that mirrors :mod:`repro.reputation.backend` and
:mod:`repro.workloads.registry`.  Register additional strategies with
:func:`register_adversary`::

    from repro.adversary import register_adversary

    @register_adversary("eclipse", description="...", knobs=("spread",))
    class EclipseStrategy:
        ...
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from ..config import AdversarySpec
from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from ..sim.engine import Simulation

__all__ = [
    "AdversaryStrategy",
    "AdversaryFactory",
    "register_adversary",
    "available_adversaries",
    "adversary_knobs",
    "make_adversary",
    "default_adversary_spec",
]


@runtime_checkable
class AdversaryStrategy(Protocol):
    """What the simulation engine requires of an adversary workload.

    Implementations additionally expose the ``spec`` they were built from
    and an ``attacker_ids`` list of every identity they control (kept out of
    the protocol so structural ``isinstance`` checks stay method-based).
    """

    def install(self, sim: "Simulation", time: float) -> None:
        """Inject the initial attacker identities (called once at setup)."""
        ...

    def act(self, sim: "Simulation", time: float) -> None:
        """Perform one scheduled adversary action at simulated ``time``."""
        ...


#: A factory builds a strategy instance from its validated spec.
AdversaryFactory = Callable[[AdversarySpec], "AdversaryStrategy"]

_FACTORIES: dict[str, AdversaryFactory] = {}
_DESCRIPTIONS: dict[str, str] = {}
_KNOBS: dict[str, tuple[str, ...]] = {}


def register_adversary(
    name: str, description: str = "", knobs: tuple[str, ...] = ()
) -> Callable[[AdversaryFactory], AdversaryFactory]:
    """Decorator registering ``factory`` under ``name``.

    ``knobs`` declares the option names the strategy understands;
    :func:`make_adversary` rejects specs carrying anything else, so typos in
    attack configurations fail loudly instead of silently running a weaker
    attack.
    """

    def decorator(factory: AdversaryFactory) -> AdversaryFactory:
        doc = (getattr(factory, "__doc__", "") or "").strip()
        _FACTORIES[name] = factory
        _DESCRIPTIONS[name] = description or (doc.splitlines()[0] if doc else name)
        _KNOBS[name] = tuple(knobs)
        return factory

    return decorator


def available_adversaries() -> dict[str, str]:
    """Name → one-line description for every registered strategy."""
    return dict(_DESCRIPTIONS)


def adversary_knobs(name: str) -> tuple[str, ...]:
    """The option names the strategy registered under ``name`` accepts."""
    return _KNOBS.get(name, ())


def make_adversary(spec: AdversarySpec) -> "AdversaryStrategy":
    """Build the strategy ``spec.name`` names, validating its knobs."""
    factory = _FACTORIES.get(spec.name)
    if factory is None:
        raise ConfigurationError(
            f"no adversary factory registered for {spec.name!r}; "
            f"known: {sorted(_FACTORIES)}"
        )
    allowed = set(_KNOBS.get(spec.name, ()))
    unknown = [key for key, _ in spec.options if key not in allowed]
    if unknown:
        raise ConfigurationError(
            f"unknown option(s) {unknown} for adversary {spec.name!r}; "
            f"accepted: {sorted(allowed)}"
        )
    return factory(spec)


def default_adversary_spec(name: str, horizon: float) -> AdversarySpec:
    """A sensibly tuned spec for ``name`` at a given simulation horizon.

    Wave-based strategies act roughly eight times over the run regardless of
    scale, so the same attack shape appears at test, laptop and paper
    horizons.  Used by the attack scenario presets and the robustness-matrix
    experiment.
    """
    interval = max(1.0, float(horizon) / 8.0)
    return AdversarySpec(name=name, start_time=interval, interval=interval)
