"""The per-device Data Store (DS) of §II-C and Algorithms 1–2.

The store holds:

* **metadata entries** — descriptors indicating potential data availability.
  Entries cached *without* the corresponding payload carry an expiration
  time; upon expiry the entry is dropped unless the payload arrived in the
  meantime (§II-C).
* **chunk payloads** — actual data chunks held (produced or cached).

Each metadata entry is one float, its expiry (``math.inf``: payload
present, or no TTL); it is expired iff ``now >= expiry``.  A node caches
every entry it overhears, so the table holds no object the cyclic garbage
collector would walk.

Expiration is lazy: expired entries are purged whenever the store is read,
driven by a caller-supplied clock function so the store stays decoupled from
the simulator.  The store keeps a lower bound on the earliest expiry (lowered
whenever an expiry is set, recomputed after every scan), so a read before
that bound skips the scan.  Only purges that would delete nothing are
skipped, so purge timing — and with it the table's insertion order, which
decides how responses are packed — is exactly that of a scan on every read.

Overheard entries arrive a response at a time, so
:meth:`DataStore.insert_metadata` takes a batch: one clock read, and the new
descriptors back in order.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional

from repro.data.descriptor import DataDescriptor
from repro.data.item import Chunk
from repro.data.predicate import QuerySpec


class DataStore:
    """Metadata + chunk storage with payload-linked expiration.

    Args:
        clock: Zero-argument callable returning the current time; usually
            ``lambda: sim.now``.
        metadata_ttl: Lifetime of a metadata entry cached without payload.
            ``None`` disables expiration.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        metadata_ttl: Optional[float] = None,
    ) -> None:
        self._clock = clock
        self.metadata_ttl = metadata_ttl
        #: Descriptor -> expiry (``math.inf``: never expires).
        self._metadata: Dict[DataDescriptor, float] = {}
        self._chunks: Dict[DataDescriptor, Chunk] = {}
        #: Lower bound on every expiry; no entry can expire while the
        #: clock reads less than this.
        self._next_expiry = math.inf

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def insert_metadata(
        self,
        descriptors: Iterable[DataDescriptor],
        has_payload: bool = False,
    ) -> List[DataDescriptor]:
        """Insert or refresh metadata entries, in order.

        Returns:
            The descriptors that were new (not previously present and
            live), in insertion order.
        """
        now = self._clock()
        expires_at = never = math.inf
        if not has_payload and self.metadata_ttl is not None:
            expires_at = now + self.metadata_ttl
            if expires_at < self._next_expiry:
                self._next_expiry = expires_at
        table = self._metadata
        new: List[DataDescriptor] = []
        for descriptor in descriptors:
            current = table.get(descriptor)
            if current is None or now >= current:
                # An expired, unpurged entry keeps its slot in the order.
                table[descriptor] = expires_at
                new.append(descriptor)
            elif current != never:
                # Refresh, or upgrade: an entry with payload never expires.
                table[descriptor] = expires_at
        return new

    def has_metadata(self, descriptor: DataDescriptor) -> bool:
        """Whether a live metadata entry for ``descriptor`` exists."""
        expiry = self._metadata.get(descriptor)
        if expiry is None:
            return False
        if self._clock() >= expiry:
            del self._metadata[descriptor]
            return False
        return True

    def match_metadata(self, spec: QuerySpec) -> List[DataDescriptor]:
        """All live metadata descriptors satisfying ``spec``."""
        self._purge_expired()
        if not spec:
            return list(self._metadata)
        return [d for d in self._metadata if spec.matches(d)]

    def all_metadata(self) -> List[DataDescriptor]:
        """All live metadata descriptors."""
        self._purge_expired()
        return list(self._metadata)

    def metadata_count(self) -> int:
        """Number of live metadata entries."""
        self._purge_expired()
        return len(self._metadata)

    def remove_metadata(self, descriptor: DataDescriptor) -> None:
        """Explicitly remove a metadata entry (e.g. data deleted)."""
        self._metadata.pop(descriptor, None)

    def _purge_expired(self) -> None:
        now = self._clock()
        if now < self._next_expiry:
            return
        table = self._metadata
        for descriptor in [d for d, expiry in table.items() if now >= expiry]:
            del table[descriptor]
        self._next_expiry = min(table.values(), default=math.inf)

    # ------------------------------------------------------------------
    # Chunks
    # ------------------------------------------------------------------
    def insert_chunk(self, chunk: Chunk) -> bool:
        """Store a chunk payload; also records/upgrades its metadata entry.

        Returns:
            True if the chunk was not already stored.
        """
        is_new = chunk.descriptor not in self._chunks
        self._chunks[chunk.descriptor] = chunk
        # Holding any chunk of an item keeps the item's metadata alive
        # ("a metadata entry exists as long as ... any chunk ... exists").
        self.insert_metadata(
            (chunk.item_descriptor, chunk.descriptor), has_payload=True
        )
        return is_new

    def has_chunk(self, descriptor: DataDescriptor) -> bool:
        """Whether the chunk payload with this descriptor is stored."""
        return descriptor in self._chunks

    def get_chunk(self, descriptor: DataDescriptor) -> Optional[Chunk]:
        """The stored chunk, or None."""
        return self._chunks.get(descriptor)

    def chunks_of(self, item_descriptor: DataDescriptor) -> List[Chunk]:
        """All stored chunks belonging to the given item, by chunk id."""
        item_descriptor = item_descriptor.item_descriptor()
        matches = [
            chunk
            for chunk in self._chunks.values()
            if chunk.item_descriptor == item_descriptor
        ]
        return sorted(matches, key=lambda chunk: chunk.chunk_id)

    def chunk_ids_of(self, item_descriptor: DataDescriptor) -> List[int]:
        """Sorted chunk ids stored for the given item."""
        return [chunk.chunk_id for chunk in self.chunks_of(item_descriptor)]

    def match_chunks(self, spec: QuerySpec) -> List[Chunk]:
        """All stored chunks whose descriptors satisfy ``spec``."""
        return [c for c in self._chunks.values() if spec.matches(c.descriptor)]

    # ------------------------------------------------------------------
    def stored_bytes(self) -> int:
        """Total payload bytes held (for storage accounting)."""
        return sum(chunk.size for chunk in self._chunks.values())

    def observe_state(self) -> Dict[str, int]:
        """Flight-recorder view: raw occupancy counters, O(chunks).

        Strictly read-only (no lazy purge) and cheap: ``metadata`` is the
        raw table length — it may include expired-but-unpurged entries,
        which is the honest answer to "how much memory does this table
        hold right now".
        """
        return {
            "metadata": len(self._metadata),
            "chunks": len(self._chunks),
            "bytes": self.stored_bytes(),
        }
