"""The unified catalogue: every registry of the library behind one lookup.

The reproduction grew four registries — reputation schemes
(:mod:`repro.reputation.backend`), workload scenarios
(:mod:`repro.workloads.registry`), adversary strategies
(:mod:`repro.adversary`) and experiments
(:data:`repro.experiments.runner.EXPERIMENTS`).  :func:`catalogue` exposes
them as one ``section → {name: description}`` mapping (what ``python -m
repro catalogue`` prints), and the ``resolve_*`` helpers turn names into
validated objects, raising :class:`~repro.api.errors.UnknownNameError` with
a did-you-mean hint on anything the registries cannot resolve.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Mapping

from ..adversary import available_adversaries
from ..config import (
    ADVERSARY_STRATEGIES,
    REPUTATION_SCHEMES,
    AdversarySpec,
    SimulationParameters,
    parse_adversary_name,
    parse_reputation_scheme,
)
from ..errors import ConfigurationError
from ..reputation.backend import scheme_catalogue
from ..workloads.registry import available_scenarios, get_scenario
from .errors import UnknownNameError

__all__ = [
    "CATALOGUE_SECTIONS",
    "catalogue",
    "experiment_catalogue",
    "fuzz_generator_catalogue",
    "resolve_scenario",
    "resolve_scheme",
    "resolve_adversary",
    "resolve_experiment_ids",
    "resolve_trace",
    "unknown_trace",
]

#: The sections :func:`catalogue` reports, in presentation order.
CATALOGUE_SECTIONS = (
    "schemes",
    "scenarios",
    "adversaries",
    "experiments",
    "fuzz-generators",
)


def experiment_catalogue() -> dict[str, str]:
    """Experiment id → title for every registered experiment."""
    # Imported lazily: the experiments package pulls in every figure module,
    # which the catalogue's other sections do not need.
    from ..experiments.runner import EXPERIMENTS

    return {
        experiment_id: (cls.title or experiment_id)
        for experiment_id, cls in EXPERIMENTS.items()
    }


def catalogue() -> dict[str, dict[str, str]]:
    """Every registry as ``section → {name: description}``.

    Sections are :data:`CATALOGUE_SECTIONS`; entries within a section are in
    registry order (callers that need stable text output sort by name).
    """
    return {
        "schemes": scheme_catalogue(),
        "scenarios": available_scenarios(),
        "adversaries": available_adversaries(),
        "experiments": experiment_catalogue(),
        "fuzz-generators": fuzz_generator_catalogue(),
    }


def fuzz_generator_catalogue() -> dict[str, str]:
    """Fuzz generator name → description (the scenario fuzzer's dimensions)."""
    # Imported lazily, mirroring experiment_catalogue: the fuzzer pulls in
    # the whole engine stack.
    from ..workloads.fuzz import available_fuzz_generators

    return available_fuzz_generators()


def resolve_scenario(name: str, seed: int = 1) -> SimulationParameters:
    """Parameters of the scenario registered under ``name``."""
    known = available_scenarios()
    if name not in known:
        raise UnknownNameError("scenario", name, known)
    return get_scenario(name, seed=seed)


def resolve_scheme(name: str) -> str:
    """Canonical scheme name for ``name`` (aliases accepted)."""
    try:
        return parse_reputation_scheme(name)
    except ConfigurationError:
        raise UnknownNameError("reputation scheme", name, REPUTATION_SCHEMES) from None


def resolve_adversary(
    value: "AdversarySpec | str | Mapping[str, Any] | None",
) -> AdversarySpec | None:
    """Coerce ``value`` into a validated :class:`AdversarySpec`.

    Accepts everything :meth:`AdversarySpec.parse` does; an unknown strategy
    name is upgraded to :class:`UnknownNameError` so the CLI's did-you-mean
    behaviour is uniform across all registries.  Every other validation
    failure (bad counts, malformed options, ...) propagates unchanged.
    """
    if value is None or isinstance(value, AdversarySpec):
        return value
    if isinstance(value, str):
        attempted = value
    elif isinstance(value, Mapping):
        attempted = value.get("name", "sybil_swarm")
    else:
        attempted = None
    if attempted is not None:
        try:
            parse_adversary_name(attempted)
        except ConfigurationError:
            raise UnknownNameError(
                "adversary strategy", attempted, ADVERSARY_STRATEGIES
            ) from None
    return AdversarySpec.parse(value)


def resolve_trace(path: str) -> "Any":
    """Load the trace file at ``path``, with did-you-mean on missing files.

    Returns a :class:`~repro.trace.log.TraceLog`; a missing file raises
    :class:`UnknownNameError` listing trace-looking siblings (so ``repro
    trace diff runs/baseline.jsonl ...`` typos behave like unknown scheme
    names), and malformed files raise
    :class:`~repro.trace.log.TraceFormatError` (a
    :class:`~repro.errors.ConfigurationError`).
    """
    from ..trace.log import TraceLog

    try:
        return TraceLog.load(path)
    except FileNotFoundError:
        raise unknown_trace(path) from None


def unknown_trace(path: str) -> UnknownNameError:
    """A missing trace file's error, hinting the ``*.jsonl`` files beside it."""
    directory = Path(path).parent
    siblings = (
        sorted(str(candidate) for candidate in directory.glob("*.jsonl"))
        if directory.is_dir()
        else []
    )
    return UnknownNameError("trace", str(path), siblings)


def resolve_experiment_ids(ids: Iterable[str]) -> list[str]:
    """Deduplicated experiment ids, each validated against the registry."""
    known = experiment_catalogue()
    selected = list(dict.fromkeys(ids))
    for experiment_id in selected:
        if experiment_id not in known:
            raise UnknownNameError("experiment", experiment_id, known)
    return selected
