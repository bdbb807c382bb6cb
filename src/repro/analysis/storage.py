"""Persistence of experiment results as JSON documents.

The :class:`ResultStore` writes one JSON file per experiment under a results
directory, so a long sweep can be analysed, re-plotted and compared against
the paper without being re-run.  :func:`atomic_write` is the one way the
package replaces a file: result documents, reports and traces alike.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, TextIO

__all__ = ["ResultStore", "atomic_write"]


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Open ``path`` for writing UTF-8 text through a temp file beside it.

    The temp file, ``<name>.tmp-<pid>-<object id>``, replaces ``path`` only
    when the block exits cleanly.  On any error it is unlinked and ``path``
    keeps its old content, so readers see the old file or the new one, never
    a torn or truncated write.
    """
    target = Path(path)
    temp_path = target.with_name(f"{target.name}.tmp-{os.getpid()}-{id(target)}")
    try:
        with temp_path.open("w", encoding="utf-8") as handle:
            yield handle
        os.replace(temp_path, target)
    finally:
        # A successful replace already consumed the temp file.
        temp_path.unlink(missing_ok=True)


def _json_safe(value: Any) -> Any:
    """Copy ``value`` with non-finite floats replaced by ``None``.

    ``json.dump(..., allow_nan=True)`` would emit bare ``NaN``/``Infinity``
    tokens, which are not JSON: strict consumers (sqlite/postgres JSON
    columns, ``jq``, parsers in other languages) reject the whole document.
    Sanitising to ``null`` keeps every stored document standard JSON;
    :meth:`repro.metrics.summary.RunSummary.from_dict` maps the ``null``
    back to ``nan`` for float metrics, so summaries still round-trip.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


@dataclass
class ResultStore:
    """Reads and writes experiment results under ``root``."""

    root: Path

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, name: str) -> Path:
        """Path of the document called ``name`` (sanitised to a slug)."""
        slug = "".join(c if c.isalnum() or c in "-_" else "_" for c in name)
        return self.root / f"{slug}.json"

    def save_json(self, name: str, document: Any) -> Path:
        """Write ``document`` (anything JSON-serialisable) and return its path.

        The write is atomic (:func:`atomic_write`), so readers never observe
        a torn document — the store is shared by concurrently submitted runs
        (:meth:`repro.api.SimulationService.submit`) through the run cache,
        where a half-written file would otherwise poison the (params, seed)
        key for good.  Non-finite floats are sanitised to ``null`` (see
        :func:`_json_safe`), and a serialisation failure never leaks the
        temp file into the store directory.
        """
        path = self.path_for(name)
        with atomic_write(path) as handle:
            json.dump(
                _json_safe(document), handle, indent=2, sort_keys=True, allow_nan=False
            )
        return path

    def load_json(self, name: str) -> Any:
        """Read back a document written by :meth:`save_json`."""
        path = self.path_for(name)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def exists(self, name: str) -> bool:
        """Whether a JSON document called ``name`` exists."""
        return self.path_for(name).exists()
