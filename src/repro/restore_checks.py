"""Typed checks for backend state read back from a durable store.

Each check returns the value it accepts, or raises
:class:`~repro.errors.PersistenceError` saying where the bad value sits.
"""

from __future__ import annotations

import math
from array import array
from typing import Any

from .errors import PersistenceError

__all__ = ["ID_LIMIT", "checked_count", "checked_fields", "checked_id", "checked_number"]

#: Peer ids and per-pair counts live in ``array('I')`` columns (ROCQ's
#: sorted id arrays), so a stored one must fit an unsigned C int.
ID_LIMIT = 1 << (8 * array("I").itemsize)


def checked_id(key: Any, where: str) -> int:
    """The peer id an exported key names; the key must be ``str(peer_id)``."""
    decimal = isinstance(key, str) and key.isdecimal() and len(key) <= 10
    peer_id = int(key) if decimal else -1
    if not (0 <= peer_id < ID_LIMIT and str(peer_id) == key):
        raise PersistenceError(
            f"{where} has a key that is not the canonical decimal of a peer id "
            f"below {ID_LIMIT}: {key!r}"
        )
    return peer_id


def checked_fields(data: Any, where: str, *keys: str) -> dict[str, Any]:
    """``data`` if it is an object that holds every one of ``keys``."""
    if not isinstance(data, dict):
        raise PersistenceError(f"{where} is not an object: {data!r}")
    for key in keys:
        if key not in data:
            raise PersistenceError(f"{where} has no {key!r}")
    return data


def checked_count(value: Any, where: str, limit: int | None = None) -> int:
    """``value`` if it is a JSON integer (so not a bool) in ``[0, limit)``."""
    if type(value) is not int or value < 0 or (limit is not None and value >= limit):
        bound = "a non-negative integer" + ("" if limit is None else f" below {limit}")
        raise PersistenceError(f"{where} is not {bound}: {value!r}")
    return value


def checked_number(value: Any, where: str) -> float:
    """``value`` as a float, if it is a finite JSON number (not a bool)."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise PersistenceError(f"{where} is not a finite number: {value!r}")
    return float(value)
