"""State digests: the fingerprints the divergence bisector compares.

Two granularities:

* :func:`engine_state_digest` — one hash over everything mutable the engine
  owns (clock, population, lending ledger, reputation backend state), taken
  after each trace record.  Two runs whose digests first differ at record
  *i* diverged while handling record *i*.
* :func:`stream_state_hashes` — one short hash per named RNG stream, which
  lets the differ name the *stream* that drew differently (e.g. the
  ``transactions`` stream consumed an extra draw) rather than just the
  record index.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..ids import sha1, sha256

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Simulation

__all__ = ["engine_state_digest", "stream_state_hashes"]


def stream_state_hashes(sim: "Simulation") -> dict[str, str]:
    """Short per-stream hashes of the RNG states created so far.

    A stream's state is a nested dict of ints (numpy's PCG64 state layout)
    whose ``repr`` is deterministic for a given state, so hashing the repr
    detects any difference in draw counts or positions.
    """
    hashes: dict[str, str] = {}
    for name in sim.streams.names():
        state = sim.streams.stream(name).state
        digest = sha1(repr(state).encode("utf-8"), usedforsecurity=False)
        hashes[name] = digest.hexdigest()[:12]
    return hashes


def engine_state_digest(sim: "Simulation") -> str:
    """Hash of the engine's mutable state at the current instant."""
    parts = sha256()
    parts.update(f"t{sim.clock.now!r}".encode("ascii"))
    parts.update(("|a" + ",".join(map(str, sim.population.active_ids))).encode("ascii"))
    waiting = sorted(peer.peer_id for peer in sim.population.waiting_peers())
    parts.update(("|w" + ",".join(map(str, waiting))).encode("ascii"))
    parts.update(f"|n{len(sim.population)}".encode("ascii"))
    stats = sim.lending.stats
    parts.update(
        (
            f"|l{stats.introductions_granted},{stats.audits_passed},"
            f"{stats.audits_failed},{stats.total_reputation_lent!r},"
            f"{stats.total_rewards_paid!r},{stats.total_stakes_lost!r},"
            f"{stats.sanctions_applied}"
        ).encode("ascii")
    )
    for contract in sorted(
        sim.lending.outstanding_contracts(), key=lambda c: c.entrant
    ):
        parts.update(
            (
                f"|o{contract.entrant}:{contract.introducer}:"
                f"{contract.amount!r}:{contract.transactions_until_audit}"
            ).encode("ascii")
        )
    parts.update(("|b" + sim.store.state_digest()).encode("ascii"))
    return parts.hexdigest()
