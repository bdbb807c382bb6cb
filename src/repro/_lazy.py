"""Package names imported on first access (PEP 562).

A package that re-exports names from a submodule whose imports a simulation
never calls (the executors, the sweep, the server) maps each such name to its
submodule and sets ``__getattr__ = lazy_attributes(__name__, names)``.  The
submodule is imported when the name is first read, and the value is kept in
the package, so later reads are plain attribute lookups.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping

__all__ = ["lazy_attributes"]


def lazy_attributes(package: str, names: Mapping[str, str]) -> Callable[[str], Any]:
    """A module ``__getattr__`` for ``package`` that resolves each key of
    ``names`` from the relative submodule it maps to."""

    def __getattr__(name: str) -> Any:
        module = names.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
