"""The per-device Data Store (DS) of §II-C and Algorithms 1–2.

The store holds:

* **metadata entries** — descriptors indicating potential data availability.
  Entries cached *without* the corresponding payload carry an expiration
  time; upon expiry the entry is dropped unless the payload arrived in the
  meantime (§II-C).
* **chunk payloads** — actual data chunks held (produced or cached).

Expiration is lazy: expired entries are purged whenever the store is read,
driven by a caller-supplied clock function so the store stays decoupled from
the simulator.  The store keeps a lower bound on the earliest expiry of any
payload-less entry (lowered whenever an expiry is set, recomputed after
every scan), so a read before that bound skips the scan.  Only purges that
would delete nothing are skipped, so purge timing — and with it the table's
insertion order, which decides how responses are packed — is exactly that
of a scan on every read.

Overheard entries arrive a response at a time, so
:meth:`DataStore.insert_metadata` takes a batch: one clock read, and the new
descriptors back in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.data.descriptor import DataDescriptor
from repro.data.item import Chunk
from repro.data.predicate import QuerySpec


@dataclass
class MetadataRecord:
    """Book-keeping for one cached metadata entry."""

    descriptor: DataDescriptor
    has_payload: bool
    expires_at: Optional[float]

    def expired(self, now: float) -> bool:
        return (
            not self.has_payload
            and self.expires_at is not None
            and now >= self.expires_at
        )


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
        self._metadata: Dict[DataDescriptor, MetadataRecord] = {}
        self._chunks: Dict[DataDescriptor, Chunk] = {}
        #: Lower bound on every payload-less record's ``expires_at``; no
        #: record can expire while the clock reads less than this.
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
        expires_at = None
        if not has_payload and self.metadata_ttl is not None:
            expires_at = now + self.metadata_ttl
            if expires_at < self._next_expiry:
                self._next_expiry = expires_at
        table = self._metadata
        new: List[DataDescriptor] = []
        for descriptor in descriptors:
            record = table.get(descriptor)
            if record is None or record.expired(now):
                # An expired, unpurged record is replaced in place and
                # keeps its slot in the table's order.
                table[descriptor] = MetadataRecord(
                    descriptor, has_payload, expires_at
                )
                new.append(descriptor)
            elif has_payload or record.has_payload:
                # Upgrade: once payload is present, the entry no longer expires.
                record.has_payload = True
                record.expires_at = None
            else:
                record.expires_at = expires_at
        return new

    def has_metadata(self, descriptor: DataDescriptor) -> bool:
        """Whether a live metadata entry for ``descriptor`` exists."""
        record = self._metadata.get(descriptor)
        if record is None:
            return False
        if record.expired(self._clock()):
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
        expired = [d for d, record in self._metadata.items() if record.expired(now)]
        for descriptor in expired:
            del self._metadata[descriptor]
        self._next_expiry = min(
            (
                record.expires_at
                for record in self._metadata.values()
                if not record.has_payload and record.expires_at is not None
            ),
            default=math.inf,
        )

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

    def chunk_count(self) -> int:
        """Total number of stored chunks."""
        return len(self._chunks)

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
