"""The ``persist`` facet of a :class:`~repro.api.request.RunRequest`.

Kept import-light (no sqlite) so ``repro.api.request`` can parse and
validate the facet without paying for a store it may never open; the store
loads lazily when an executor actually dispatches a persisted spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ..errors import ConfigurationError

__all__ = ["PersistSpec"]


@dataclass(frozen=True)
class PersistSpec:
    """Where (and under which key) a run's backend state is checkpointed.

    ``store`` is a store URL (``sqlite://runs/rep.db``, ``memory://shared``)
    or a bare sqlite path.  ``key`` names the snapshot inside the store;
    when omitted, the request's run label is used so two persisted runs in
    one store stay distinct by default.  ``resume`` asks the engine to
    restore the backend from the store before the run instead of starting
    cold.
    """

    store: str
    key: str | None = None
    resume: bool = False

    def __post_init__(self) -> None:
        if not str(self.store):
            raise ConfigurationError("persist.store must name a store URL or path")

    @classmethod
    def parse(cls, value: Any) -> "PersistSpec | None":
        """Coerce user input (None/str/Path/mapping/PersistSpec) to a spec."""
        if value is None or isinstance(value, PersistSpec):
            return value
        if isinstance(value, (str, Path)):
            return cls(store=str(value))
        if isinstance(value, Mapping):
            unknown = set(value) - {"store", "key", "resume"}
            if unknown:
                raise ConfigurationError(
                    f"unknown persist option(s): {', '.join(sorted(unknown))}"
                )
            if "store" not in value:
                raise ConfigurationError("persist mapping needs a 'store' entry")
            key = value.get("key")
            return cls(
                store=str(value["store"]),
                key=None if key is None else str(key),
                resume=bool(value.get("resume", False)),
            )
        raise ConfigurationError(
            f"cannot interpret {value!r} as a persist specification"
        )

    def to_dict(self) -> dict[str, Any]:
        document: dict[str, Any] = {"store": self.store}
        if self.key is not None:
            document["key"] = self.key
        if self.resume:
            document["resume"] = True
        return document
