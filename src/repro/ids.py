"""Peer identifiers and hashing helpers.

Peers are identified by small consecutive integers (``PeerId``) inside the
simulator — cheap to store and to index metric arrays with — while the DHT
overlay maps them onto a large circular key space through a cryptographic
hash, exactly as a deployed structured overlay would.

The package's SHA digests are made by :func:`sha1` and :func:`sha256`, the
interpreter's own implementations, as CPython's ``random.py`` does:
:mod:`hashlib` would map OpenSSL's libcrypto into every simulation process
(about 3.6 MB of peak RSS) for the same bytes.  A build without them falls
back to :mod:`hashlib`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

try:
    from _sha1 import sha1
except ImportError:  # pragma: no cover - interpreter built without it
    from hashlib import sha1
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:  # pragma: no cover - interpreter built without it
        from hashlib import sha256

__all__ = [
    "PeerId",
    "KEY_SPACE_BITS",
    "KEY_SPACE_SIZE",
    "sha1",
    "sha256",
    "hash_to_key",
    "peer_key",
    "replica_key",
    "PeerIdAllocator",
]

# Type alias used throughout the library for readability.
PeerId = int

#: Number of bits in the DHT identifier space (Chord uses 160-bit SHA-1 keys).
KEY_SPACE_BITS = 160

#: Size of the circular identifier space.
KEY_SPACE_SIZE = 1 << KEY_SPACE_BITS


def hash_to_key(data: bytes) -> int:
    """Hash arbitrary bytes onto the ``[0, KEY_SPACE_SIZE)`` identifier circle."""
    digest = sha1(data).digest()
    return int.from_bytes(digest, "big") % KEY_SPACE_SIZE


def peer_key(peer_id: PeerId) -> int:
    """Return the DHT key under which ``peer_id``'s own node is placed."""
    return hash_to_key(f"peer:{peer_id}".encode("utf-8"))


def replica_key(peer_id: PeerId, replica_index: int) -> int:
    """Return the DHT key of the ``replica_index``-th score-manager replica.

    ROCQ stores the reputation of a peer at several score managers.  Each
    replica key is an independent hash of the peer identifier and the replica
    index, so the replicas land on unrelated points of the ring and are very
    unlikely to share a responsible node.
    """
    return hash_to_key(f"replica:{peer_id}:{replica_index}".encode("utf-8"))


@dataclass
class PeerIdAllocator:
    """Hands out consecutive peer identifiers.

    The allocator never reuses an identifier, even after a peer leaves, so
    identifiers double as a stable "birth order" which several metrics rely
    on (e.g. distinguishing founding members from later entrants).
    """

    next_id: PeerId = 0

    def allocate(self) -> PeerId:
        """Return a fresh, never-before-used peer identifier."""
        allocated = self.next_id
        self.next_id += 1
        return allocated

    def __iter__(self) -> Iterator[PeerId]:
        """Yield fresh identifiers forever (useful for generators in tests)."""
        while True:
            yield self.allocate()
