""":class:`RunRequest` — the typed unit of work the service accepts.

A request names *what* to simulate entirely through registries and scalar
knobs: a scenario (base parameters), an optional reputation scheme, an
optional adversary, a mapping of parameter overrides, a horizon scale, and
the (seed, repeats) identity.  Construction validates every part against the
corresponding registry — an invalid request cannot exist — and the whole
object round-trips through JSON, which is what lets callers submit work over
any transport that carries text.

Determinism contract: repeat 0 runs with ``seed`` itself, so a one-repeat
request is bit-identical to calling :func:`repro.sim.engine.run_simulation`
on the resolved parameters directly (the legacy example path); later repeats
derive their seeds from (seed, ``api.run``, label, repeat index) exactly like
the sweep machinery, so results never depend on executor backend or job
count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Any, Iterable, Mapping

from pathlib import Path

from ..config import AdversarySpec, SimulationParameters
from ..errors import ConfigurationError
from ..parallel.specs import RunSpec
from ..rng import derive_seed
from ..storage.spec import PersistSpec
from ..trace.log import TraceHeader, load_trace_header, trace_file_digest
from ..trace.spec import TraceSpec
from ..workloads.registry import available_scenarios, get_scenario
from .catalogue import resolve_adversary, resolve_scheme
from .errors import UnknownNameError

__all__ = ["RunRequest"]

#: Sweep tag folded into the seeds of repeats past the first, namespacing
#: them away from every experiment sweep.
_SEED_NAMESPACE = "api.run"

#: Parameter fields a request sets through dedicated fields, not overrides.
_RESERVED_OVERRIDES = {
    "seed": "seed",
    "reputation_scheme": "scheme",
    "adversary": "adversary",
}

_PARAMETER_FIELDS = frozenset(f.name for f in fields(SimulationParameters))


def _sibling_traces(path: str) -> list[str]:
    """Trace-looking files next to a missing trace path (did-you-mean pool)."""
    directory = Path(path).parent
    if not directory.is_dir():
        return []
    return sorted(str(candidate) for candidate in directory.glob("*.jsonl"))


def _canonical_value(key: str, value: Any) -> Any:
    """A JSON-scalar form of an override value (enums collapse to .value)."""
    if isinstance(value, Enum):
        return value.value
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"override {key!r} must be a JSON scalar, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class RunRequest:
    """One validated, JSON-round-trippable simulation request.

    Attributes
    ----------
    scenario:
        Name from the scenario registry providing the base parameters, or
        ``None`` for the paper's Table 1 defaults.
    scheme:
        Reputation scheme overriding the scenario's choice (aliases such as
        ``tft`` are canonicalised), or ``None`` to keep it.
    adversary:
        Adversary workload — an :class:`AdversarySpec`, a bare strategy name,
        or a mapping as produced by :meth:`AdversarySpec.to_dict`.
    overrides:
        Extra :class:`SimulationParameters` fields to replace, canonicalised
        to a sorted tuple of ``(name, value)`` pairs; accepts a mapping.
        ``seed`` / ``reputation_scheme`` / ``adversary`` are rejected here —
        they have dedicated request fields.
    scale:
        Horizon scaling applied after everything else (see
        :meth:`SimulationParameters.scaled`).
    seed:
        Master seed; repeat 0 runs with it verbatim.
    repeats:
        Independent repetitions (each with its own derived seed).
    label:
        Optional human-readable tag used in progress lines and derived seeds;
        defaults to the scenario name (or ``"run"``).
    trace:
        Optional trace facet — a :class:`~repro.trace.spec.TraceSpec` or a
        mapping like ``{"record": path}`` / ``{"replay": path}``.  Recording
        captures the run's event trace to the path; replaying takes its base
        parameters (and master seed) from the recorded trace, with ``scheme``
        / ``adversary`` / ``overrides`` / ``scale`` applied on top for A/B
        replays, so ``scenario`` must be ``None``.
    persist:
        Optional persistence facet — a
        :class:`~repro.storage.spec.PersistSpec`, a bare store URL/path, or
        a mapping like ``{"store": "sqlite://rep.db", "key": "...",
        "resume": true}``.  The run's backend state is checkpointed into
        the store on finalize (and restored first when ``resume``).  An
        execution *side-effect*, not part of the run's identity: excluded
        from :meth:`fingerprint`, and persisted runs bypass the run cache (a
        cache hit would skip the state write).  Requires ``repeats == 1``
        and no trace facet.
    """

    scenario: str | None = None
    scheme: str | None = None
    adversary: AdversarySpec | None = None
    overrides: tuple[tuple[str, Any], ...] = ()
    scale: float = 1.0
    seed: int = 1
    repeats: int = 1
    label: str = ""
    trace: TraceSpec | None = None
    persist: PersistSpec | None = None

    def __post_init__(self) -> None:
        if self.scenario is not None:
            known = available_scenarios()
            if self.scenario not in known:
                raise UnknownNameError("scenario", self.scenario, known)
        if self.scheme is not None:
            object.__setattr__(self, "scheme", resolve_scheme(self.scheme))
        object.__setattr__(self, "adversary", resolve_adversary(self.adversary))
        object.__setattr__(self, "overrides", self._canonical_overrides())
        if self.scale <= 0:
            raise ConfigurationError("scale must be > 0")
        if self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "trace", TraceSpec.parse(self.trace))
        self._validate_trace()
        object.__setattr__(self, "persist", PersistSpec.parse(self.persist))
        self._validate_persist()
        # Fail fast: override *values* must produce valid parameters too.
        self.resolve()

    def _validate_trace(self) -> None:
        if self.trace is None:
            return
        if self.trace.mode == "record" or self.trace.record_to is not None:
            if self.repeats != 1:
                raise ConfigurationError(
                    "trace recording requires repeats == 1: a trace file "
                    "holds exactly one run"
                )
        if self.trace.mode == "replay":
            if self.scenario is not None:
                raise ConfigurationError(
                    "a replay request takes its base parameters from the "
                    "recorded trace; drop 'scenario' and express deltas via "
                    "scheme/adversary/overrides/scale"
                )
            # Validates existence and format up front (invalid requests
            # cannot exist); the header is cached for resolve()/seeds().
            self._trace_header()

    def _validate_persist(self) -> None:
        if self.persist is None:
            return
        if self.repeats != 1:
            raise ConfigurationError(
                "persistence requires repeats == 1: a snapshot key holds "
                "exactly one backend state, and later repeats would "
                "silently overwrite earlier ones"
            )
        if self.trace is not None:
            raise ConfigurationError(
                "persistence cannot be combined with a trace facet; run "
                "them as separate requests"
            )

    def _trace_header(self) -> TraceHeader:
        """The replayed trace's header, loaded once and cached."""
        assert self.trace is not None
        cached = getattr(self, "_trace_header_cache", None)
        if cached is not None:
            return cached
        try:
            header = load_trace_header(self.trace.path)
        except FileNotFoundError:
            raise UnknownNameError(
                "trace", self.trace.path, _sibling_traces(self.trace.path)
            ) from None
        object.__setattr__(self, "_trace_header_cache", header)
        return header

    def _canonical_overrides(self) -> tuple[tuple[str, Any], ...]:
        raw = self.overrides
        pairs: Iterable[tuple[Any, Any]]
        if isinstance(raw, Mapping):
            pairs = raw.items()
        else:
            pairs = tuple(raw)
        canonical: list[tuple[str, Any]] = []
        seen: set[str] = set()
        for key, value in sorted(pairs, key=lambda pair: str(pair[0])):
            key = str(key)
            if key in _RESERVED_OVERRIDES:
                raise ConfigurationError(
                    f"override {key!r} is reserved; set "
                    f"RunRequest.{_RESERVED_OVERRIDES[key]} instead"
                )
            if key not in _PARAMETER_FIELDS:
                raise UnknownNameError(
                    "simulation parameter",
                    key,
                    sorted(_PARAMETER_FIELDS - set(_RESERVED_OVERRIDES)),
                )
            if key in seen:
                raise ConfigurationError(f"duplicate override: {key!r}")
            seen.add(key)
            canonical.append((key, _canonical_value(key, value)))
        return tuple(canonical)

    # ------------------------------------------------------------------ #
    # Resolution                                                           #
    # ------------------------------------------------------------------ #
    def resolve(self) -> SimulationParameters:
        """The fully resolved parameters this request describes.

        Resolution order: scenario base → overrides → scheme → adversary →
        scale.  Scaling last matches how every legacy entry point composed
        configurations, so equal inputs give bit-equal parameters.  Replay
        requests start from the recorded trace's parameters instead of a
        scenario.
        """
        if self.trace is not None and self.trace.mode == "replay":
            params = self._trace_header().parameters()
        elif self.scenario is not None:
            params = get_scenario(self.scenario, seed=self.seed)
        else:
            params = SimulationParameters(seed=self.seed)
        if self.overrides:
            params = params.with_overrides(**dict(self.overrides))
        if self.scheme is not None:
            params = params.with_overrides(reputation_scheme=self.scheme)
        if self.adversary is not None:
            params = params.with_overrides(adversary=self.adversary)
        if self.scale != 1.0:
            params = params.scaled(self.scale)
        return params

    def run_label(self) -> str:
        """The label used in progress lines and derived seeds."""
        return self.label or self.scenario or "run"

    def _master_seed(self) -> int:
        """The seed repeat 0 runs with.

        For replay requests this is the *recorded* master seed — the whole
        point of a replay is reproducing (or A/B-ing) the recorded run, and
        only its own seed keeps the live streams bit-aligned with it.
        """
        if self.trace is not None and self.trace.mode == "replay":
            return int(self._trace_header().seed)
        return self.seed

    def seeds(self) -> tuple[int, ...]:
        """One seed per repeat; repeat 0 is the master seed itself."""
        label = self.run_label()
        master = self._master_seed()
        return tuple(
            master
            if repeat == 0
            else derive_seed(master, _SEED_NAMESPACE, label, repeat)
            for repeat in range(self.repeats)
        )

    def specs(self) -> list[RunSpec]:
        """One executable :class:`RunSpec` per repeat, in repeat order."""
        params = self.resolve()
        label = self.run_label()
        trace = self.trace
        persist = self.persist
        return [
            RunSpec(
                params=params,
                seed=seed,
                sweep=_SEED_NAMESPACE,
                label=label,
                repeat=repeat,
                total_repeats=self.repeats,
                trace_mode=None if trace is None else trace.mode,
                trace_path=None if trace is None else trace.path,
                trace_record_to=None if trace is None else trace.record_to,
                trace_digest_every=1 if trace is None else trace.digest_every,
                persist_path=None if persist is None else persist.store,
                persist_key=(
                    None
                    if persist is None
                    else (persist.key or f"run/{label}")
                ),
                persist_resume=False if persist is None else persist.resume,
            )
            for repeat, seed in enumerate(self.seeds())
        ]

    def fingerprint(self) -> str:
        """Stable digest identifying exactly what this request would run.

        Computed over the resolved parameters and derived seeds, so it is
        insensitive to how the request was spelled (override ordering, scheme
        aliases, scenario-vs-explicit parameters) and stable across processes
        — the natural cache key for request-level memoisation.

        ``persist`` is deliberately absent: checkpointing is a side-effect of
        execution, not part of what the run computes.
        """
        document = {"params": self.resolve().to_dict(), "seeds": list(self.seeds())}
        if self.trace is not None:
            facet = self.trace.to_dict()
            if self.trace.mode == "replay":
                # A replay's identity is the trace *content*, not its path:
                # rerecording a different run to the same file must change
                # the fingerprint.
                facet["trace_content"] = trace_file_digest(self.trace.path)
            document["trace"] = facet
        text = json.dumps(document, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------ #
    # Serialisation                                                        #
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (see :meth:`from_dict`)."""
        return {
            "scenario": self.scenario,
            "scheme": self.scheme,
            "adversary": (
                self.adversary.to_dict() if self.adversary is not None else None
            ),
            "overrides": dict(self.overrides),
            "scale": self.scale,
            "seed": self.seed,
            "repeats": self.repeats,
            "label": self.label,
            "trace": self.trace.to_dict() if self.trace is not None else None,
            "persist": self.persist.to_dict() if self.persist is not None else None,
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialise the request to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRequest":
        """Build a request from a mapping, rejecting unknown keys loudly."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise UnknownNameError("request field", unknown[0], known)
        return cls(**dict(data))

    @classmethod
    def from_json(cls, text: str) -> "RunRequest":
        """Build a request from a JSON document produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def with_updates(self, **changes: Any) -> "RunRequest":
        """Return a copy with the given request fields replaced."""
        return replace(self, **changes)
