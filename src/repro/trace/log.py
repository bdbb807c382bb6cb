"""The versioned on-disk trace format.

A trace is a JSON-lines file:

* line 1 — a **header** object: format marker, version, master seed, the
  full parameter document and the digest cadence;
* one line per **record**: ``{"i": index, "t": time, "k": kind, "p":
  payload}`` plus, on digest lines, ``"d"`` (engine state digest) and
  ``"s"`` (per-stream RNG state hashes);
* last line — a **footer**: record count, final state digest and the run's
  summary digest.

JSON floats round-trip exactly (``json`` serialises via ``repr`` and
parses via ``float``), so replaying recorded event times reproduces the
original schedule bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from ..analysis.storage import atomic_write
from ..config import SimulationParameters
from ..errors import ConfigurationError
from ..ids import sha256

__all__ = [
    "TRACE_FORMAT",
    "TRACE_FORMAT_VERSION",
    "TraceFormatError",
    "TraceTruncatedError",
    "TraceRecord",
    "TraceHeader",
    "TraceLog",
    "load_trace_header",
    "trace_file_digest",
]

#: Format marker written into every header line.
TRACE_FORMAT = "repro-trace"

#: Current trace format version; readers reject anything newer.
TRACE_FORMAT_VERSION = 1


class TraceFormatError(ConfigurationError):
    """A trace file is malformed, truncated, or from a newer format."""


class TraceTruncatedError(TraceFormatError):
    """A trace file ends without its footer line.

    Distinct from other format errors (wrong marker, unsupported version,
    malformed lines) so callers can tell "the recording run never finished
    or the file was cut short" apart from "this is not a trace this build
    can read".  :meth:`TraceLog.save` writes atomically (temp file +
    ``os.replace``), so a crash mid-save leaves the previous complete file
    — a truncated trace therefore points at the *recording* run, not at a
    torn write.
    """


@dataclass(frozen=True)
class TraceRecord:
    """One line of a trace: an engine event or the transaction slot."""

    index: int
    time: float
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)
    state_digest: str = ""
    streams: dict[str, str] = field(default_factory=dict)

    def to_line(self) -> dict[str, Any]:
        """Compact JSON object for one trace line."""
        line: dict[str, Any] = {
            "i": self.index,
            "t": self.time,
            "k": self.kind,
            "p": self.payload,
        }
        if self.state_digest:
            line["d"] = self.state_digest
        if self.streams:
            line["s"] = self.streams
        return line

    @classmethod
    def from_line(cls, line: dict[str, Any]) -> "TraceRecord":
        try:
            return cls(
                index=int(line["i"]),
                time=float(line["t"]),
                kind=str(line["k"]),
                payload=dict(line.get("p") or {}),
                state_digest=str(line.get("d", "")),
                streams=dict(line.get("s") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"malformed trace record line: {line!r}") from exc


@dataclass(frozen=True)
class TraceHeader:
    """The cheaply readable first line of a trace file."""

    version: int
    seed: int
    params: dict[str, Any]
    digest_every: int = 1
    #: Streams fed from a trace rather than drawn live (replay recordings).
    #: Their RNG states are meaningless and are not hashed or diffed.
    pinned_streams: tuple[str, ...] = ()

    @property
    def scheme(self) -> str:
        """The reputation scheme the trace was recorded under."""
        return str(self.params.get("reputation_scheme", "rocq"))

    def parameters(self) -> SimulationParameters:
        """Rebuild the recorded run's parameters."""
        return SimulationParameters.from_dict(self.params)

    def to_line(self) -> dict[str, Any]:
        line = {
            "format": TRACE_FORMAT,
            "version": self.version,
            "seed": self.seed,
            "digest_every": self.digest_every,
            "params": self.params,
        }
        if self.pinned_streams:
            line["pinned_streams"] = list(self.pinned_streams)
        return line

    @classmethod
    def from_line(cls, line: dict[str, Any]) -> "TraceHeader":
        if line.get("format") != TRACE_FORMAT:
            raise TraceFormatError(
                f"not a {TRACE_FORMAT} file (format={line.get('format')!r})"
            )
        version = int(line.get("version", 0))
        if version < 1 or version > TRACE_FORMAT_VERSION:
            raise TraceFormatError(
                f"unsupported trace format version {version} "
                f"(this build reads versions 1..{TRACE_FORMAT_VERSION})"
            )
        try:
            return cls(
                version=version,
                seed=int(line["seed"]),
                params=dict(line["params"]),
                digest_every=int(line.get("digest_every", 1)),
                pinned_streams=tuple(line.get("pinned_streams") or ()),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"malformed trace header: {line!r}") from exc


@dataclass
class TraceLog:
    """A fully loaded (or freshly recorded) event trace."""

    seed: int
    params: dict[str, Any]
    digest_every: int = 1
    version: int = TRACE_FORMAT_VERSION
    pinned_streams: tuple[str, ...] = ()
    records: list[TraceRecord] = field(default_factory=list)
    final_state_digest: str = ""
    summary_digest: str = ""

    # ------------------------------------------------------------------ #
    # Introspection                                                        #
    # ------------------------------------------------------------------ #
    @property
    def header(self) -> TraceHeader:
        return TraceHeader(
            version=self.version,
            seed=self.seed,
            params=self.params,
            digest_every=self.digest_every,
            pinned_streams=tuple(self.pinned_streams),
        )

    @property
    def scheme(self) -> str:
        return self.header.scheme

    def parameters(self) -> SimulationParameters:
        """Rebuild the recorded run's parameters."""
        return self.header.parameters()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def arrival_records(self) -> list[TraceRecord]:
        """The exogenous arrival events, in trace order."""
        return [record for record in self.records if record.kind == "arrival"]

    # ------------------------------------------------------------------ #
    # Persistence                                                          #
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        """Write the trace as JSON lines, creating parent directories.

        The write is atomic (:func:`repro.analysis.storage.atomic_write`): a
        crash (or a serialisation error) mid-save can never leave a torn,
        footer-less file behind — readers observe either the previous
        complete trace or the new one, and the temp file is unlinked on
        failure.
        """
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(target) as handle:
            handle.write(json.dumps(self.header.to_line(), sort_keys=True))
            handle.write("\n")
            for record in self.records:
                handle.write(json.dumps(record.to_line(), sort_keys=True))
                handle.write("\n")
            footer = {
                "end": True,
                "records": len(self.records),
                "final_state_digest": self.final_state_digest,
                "summary_digest": self.summary_digest,
            }
            handle.write(json.dumps(footer, sort_keys=True))
            handle.write("\n")
        return target

    @classmethod
    def load(cls, path: str | Path) -> "TraceLog":
        """Read a trace file back; raises :class:`TraceFormatError` when
        the file is not a (complete) trace of a readable version, and
        :class:`FileNotFoundError` when it does not exist."""
        source = Path(path)
        with source.open("r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        if not lines:
            raise TraceFormatError(f"{source}: empty trace file")
        header = TraceHeader.from_line(_parse_line(source, lines[0]))
        records: list[TraceRecord] = []
        footer: dict[str, Any] | None = None
        for raw in lines[1:]:
            line = _parse_line(source, raw)
            if line.get("end"):
                footer = line
                break
            records.append(TraceRecord.from_line(line))
        if footer is None:
            raise TraceTruncatedError(
                f"{source}: truncated trace (no footer); the recording run "
                "probably did not finish"
            )
        if int(footer.get("records", -1)) != len(records):
            raise TraceFormatError(
                f"{source}: footer announces {footer.get('records')} records "
                f"but {len(records)} were read"
            )
        return cls(
            seed=header.seed,
            params=header.params,
            digest_every=header.digest_every,
            version=header.version,
            pinned_streams=header.pinned_streams,
            records=records,
            final_state_digest=str(footer.get("final_state_digest", "")),
            summary_digest=str(footer.get("summary_digest", "")),
        )


def _parse_line(source: Path, raw: str) -> dict[str, Any]:
    try:
        line = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{source}: not valid JSON lines: {exc}") from exc
    if not isinstance(line, dict):
        raise TraceFormatError(f"{source}: trace lines must be objects")
    return line


def load_trace_header(path: str | Path) -> TraceHeader:
    """Read only the header line of a trace file (cheap existence +
    format + parameter check without loading every event)."""
    source = Path(path)
    with source.open("r", encoding="utf-8") as handle:
        for raw in handle:
            if raw.strip():
                return TraceHeader.from_line(_parse_line(source, raw))
    raise TraceFormatError(f"{source}: empty trace file")


def trace_file_digest(path: str | Path) -> str:
    """Content hash of a trace file (identifies the trace in fingerprints)."""
    digest = sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
