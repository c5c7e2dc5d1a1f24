"""PDS protocol messages (§III-A, §IV-A, §IV-B).

Messages are immutable; en-route rewriting (sender id update, receiver-list
update, Bloom-filter insertion) always produces a *new* message object via
the ``rewritten`` helpers, because on a broadcast medium the original object
is still referenced by in-flight deliveries to other nodes.

Every message computes its own serialized size for the overhead metric.
``wire_size()`` is memoized per instance (immutability makes that sound:
every field the size depends on is frozen, and an attached Bloom filter's
size depends only on its fixed geometry) — the size of one message is
charged once per queue/send/ack decision on every hop, which made repeated
recomputation a measurable slice of large runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import FrozenSet, Optional, Tuple

from repro.bloom.bloom_filter import BloomFilter, NullFilter
from repro.data.descriptor import DataDescriptor
from repro.data.item import Chunk
from repro.data.predicate import QuerySpec
from repro.net.message import Correlation
from repro.net.topology import NodeId

#: Fixed per-message header: message id (8) + type (1) + sender (4) +
#: expiry (4) + receiver-count byte.
MESSAGE_HEADER_BYTES = 18

#: Bytes per entry in an explicit receiver-id list.
RECEIVER_ID_BYTES = 4

_message_ids = itertools.count(1)


def next_message_id() -> int:
    """Message id, unique within one run (queries and responses share the
    space)."""
    return next(_message_ids)


def reset_message_ids(start: int = 1) -> None:
    """Rewind the id space to ``start`` (scenario construction).

    Message ids only need to be unique *within* one simulation run — the
    span loader already scopes them per ``(shard, run)`` because forked
    workers inherit the counter mid-sequence.  Resetting per scenario
    makes the ids a deterministic function of the run itself, so two
    executions of the same scenario emit identical ids regardless of what
    else ran in the process first — which is what lets the determinism
    fingerprint compare runs across processes, schedulers, and worker
    counts.
    """
    global _message_ids
    _message_ids = itertools.count(start)


def _receivers_size(receivers: Optional[FrozenSet[NodeId]]) -> int:
    return 0 if receivers is None else RECEIVER_ID_BYTES * len(receivers)


def _memoize_size(message: "PdsMessage", size: int) -> int:
    """Stash a computed wire size on a frozen message instance."""
    object.__setattr__(message, "_wire_size", size)
    return size


@dataclass(frozen=True)
class PdsMessage:
    """Common fields of every PDS query/response."""

    message_id: int
    sender_id: NodeId
    receiver_ids: Optional[FrozenSet[NodeId]]  # None = all neighbors

    def base_size(self) -> int:
        return MESSAGE_HEADER_BYTES + _receivers_size(self.receiver_ids)


# ----------------------------------------------------------------------
# Discovery (PDD) — §III
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiscoveryQuery(PdsMessage):
    """A lingering metadata (or small-data) query.

    Attributes:
        spec: Predicates selecting the desired descriptors.
        origin_id: The consumer that issued the query.
        expires_at: Lingering-query expiration (absolute sim time).
        bloom: Redundancy-detection filter over already-received entries.
        round_index: Discovery round this query belongs to (also the Bloom
            hash-family seed, §V-3).
        want_payload: False → metadata discovery; True → small-data
            retrieval, where responses carry item payloads (§IV intro).
        hop_count: Hops travelled so far.  No forwarding decision reads
            it: it is encoded on the wire and stamped on trace events and
            link-layer correlation.
    """

    spec: QuerySpec = QuerySpec()
    origin_id: NodeId = -1
    expires_at: float = float("inf")
    bloom: object = NullFilter()
    round_index: int = 0
    want_payload: bool = False
    hop_count: int = 0

    def wire_size(self) -> int:
        cached = self.__dict__.get("_wire_size")
        if cached is not None:
            return cached
        bloom_size = self.bloom.wire_size() if hasattr(self.bloom, "wire_size") else 0
        return _memoize_size(
            self, self.base_size() + self.spec.wire_size() + bloom_size + 3
        )

    def correlation(self) -> Correlation:
        """Causal ids the link layer stamps on this message's frames."""
        return Correlation(
            query_id=self.message_id,
            round=self.round_index,
            consumer=self.origin_id,
            hop=self.hop_count,
        )

    def rewritten(
        self,
        sender_id: NodeId,
        receiver_ids: Optional[FrozenSet[NodeId]],
        bloom: Optional[object] = None,
    ) -> "DiscoveryQuery":
        """The per-hop rewritten copy (Algorithm 1 Forwarding + §III-B-2)."""
        return replace(
            self,
            sender_id=sender_id,
            receiver_ids=receiver_ids,
            bloom=self.bloom if bloom is None else bloom,
            hop_count=self.hop_count + 1,
        )


@dataclass(frozen=True)
class DiscoveryResponse(PdsMessage):
    """Metadata entries (or small data items) flowing back to consumers.

    ``entries`` carries descriptors for metadata discovery; ``payloads``
    carries small data items (as single chunks) when responding to a
    ``want_payload`` query.

    ``query_ids`` names the lingering queries this copy answers — a pure
    correlation field (excluded from ``wire_size`` so the overhead model
    matches the paper's message formats, like the elided chunk payload
    bytes in :mod:`repro.core.wire`).
    """

    entries: Tuple[DataDescriptor, ...] = ()
    payloads: Tuple[Chunk, ...] = ()
    round_index: int = 0
    query_ids: Tuple[int, ...] = ()

    def wire_size(self) -> int:
        cached = self.__dict__.get("_wire_size")
        if cached is not None:
            return cached
        entries_size = sum(e.wire_size() for e in self.entries)
        payload_size = sum(
            c.descriptor.wire_size() + c.size for c in self.payloads
        )
        return _memoize_size(self, self.base_size() + entries_size + payload_size)

    def correlation(self) -> Correlation:
        """Causal ids the link layer stamps on this message's frames."""
        return Correlation(
            response_id=self.message_id,
            round=self.round_index,
            query_id=self.query_ids[0] if len(self.query_ids) == 1 else None,
        )

    def rewritten(
        self,
        sender_id: NodeId,
        receiver_ids: FrozenSet[NodeId],
        entries: Tuple[DataDescriptor, ...],
        payloads: Tuple[Chunk, ...] = (),
        query_ids: Optional[Tuple[int, ...]] = None,
    ) -> "DiscoveryResponse":
        """Per-hop rewritten copy with a pruned payload (mixedcast).

        The message id is preserved: Algorithm 2's RR Lookup dedups copies
        of the *same* response heard from different neighbors.
        """
        return replace(
            self,
            sender_id=sender_id,
            receiver_ids=receiver_ids,
            entries=entries,
            payloads=payloads,
            query_ids=self.query_ids if query_ids is None else query_ids,
        )


# ----------------------------------------------------------------------
# Retrieval phase 1: CDI — §IV-A
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CdiQuery(PdsMessage):
    """Requests chunk-distribution information for one data item."""

    item: DataDescriptor = None  # type: ignore[assignment]
    origin_id: NodeId = -1
    expires_at: float = float("inf")
    hop_count: int = 0

    def wire_size(self) -> int:
        cached = self.__dict__.get("_wire_size")
        if cached is not None:
            return cached
        return _memoize_size(self, self.base_size() + self.item.wire_size() + 1)

    def correlation(self) -> Correlation:
        """Causal ids the link layer stamps on this message's frames."""
        return Correlation(
            query_id=self.message_id,
            consumer=self.origin_id,
            hop=self.hop_count,
        )

    def rewritten(
        self,
        sender_id: NodeId,
        receiver_ids: Optional[FrozenSet[NodeId]],
    ) -> "CdiQuery":
        return replace(
            self,
            sender_id=sender_id,
            receiver_ids=receiver_ids,
            hop_count=self.hop_count + 1,
        )


@dataclass(frozen=True)
class CdiResponse(PdsMessage):
    """ChunkId–HopCount pairs relative to the transmitting node (§IV-A).

    ``query_ids`` names the lingering CDI queries this copy answers
    (correlation only; excluded from ``wire_size``).
    """

    item: DataDescriptor = None  # type: ignore[assignment]
    pairs: Tuple[Tuple[int, int], ...] = ()  # (chunk_id, hop_count)
    query_ids: Tuple[int, ...] = ()

    def wire_size(self) -> int:
        cached = self.__dict__.get("_wire_size")
        if cached is not None:
            return cached
        return _memoize_size(
            self, self.base_size() + self.item.wire_size() + 4 * len(self.pairs)
        )

    def correlation(self) -> Correlation:
        """Causal ids the link layer stamps on this message's frames."""
        return Correlation(
            response_id=self.message_id,
            query_id=self.query_ids[0] if len(self.query_ids) == 1 else None,
        )

    def rewritten(
        self,
        sender_id: NodeId,
        receiver_ids: FrozenSet[NodeId],
        pairs: Tuple[Tuple[int, int], ...],
        query_ids: Optional[Tuple[int, ...]] = None,
    ) -> "CdiResponse":
        """Per-hop rewrite; the response id is preserved for RR dedup."""
        return replace(
            self,
            sender_id=sender_id,
            receiver_ids=receiver_ids,
            pairs=pairs,
            query_ids=self.query_ids if query_ids is None else query_ids,
        )


# ----------------------------------------------------------------------
# Retrieval phase 2: chunks — §IV-B
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChunkQuery(PdsMessage):
    """Requests a subset of chunks, directed at one nearest neighbor.

    ``root_id`` is the message id of the consumer's original query and
    ``parent_id`` the immediate parent in the recursive division tree of
    §IV-B (0 at the root); both are correlation-only fields that let the
    offline span reconstructor rebuild the per-chunk retrieval tree.
    """

    item: DataDescriptor = None  # type: ignore[assignment]
    chunk_ids: FrozenSet[int] = frozenset()
    origin_id: NodeId = -1
    expires_at: float = float("inf")
    root_id: int = 0
    parent_id: int = 0
    hop_count: int = 0

    def wire_size(self) -> int:
        cached = self.__dict__.get("_wire_size")
        if cached is not None:
            return cached
        return _memoize_size(
            self, self.base_size() + self.item.wire_size() + 2 * len(self.chunk_ids)
        )

    def correlation(self) -> Correlation:
        """Causal ids the link layer stamps on this message's frames."""
        return Correlation(
            query_id=self.message_id,
            consumer=self.origin_id,
            hop=self.hop_count,
        )

    def divided(
        self,
        sender_id: NodeId,
        receiver: NodeId,
        chunk_ids: FrozenSet[int],
    ) -> "ChunkQuery":
        """A sub-query for the recursive division of §IV-B."""
        return replace(
            self,
            message_id=next_message_id(),
            sender_id=sender_id,
            receiver_ids=frozenset({receiver}),
            chunk_ids=chunk_ids,
            root_id=self.root_id if self.root_id else self.message_id,
            parent_id=self.message_id,
            hop_count=self.hop_count + 1,
        )


@dataclass(frozen=True)
class ChunkResponse(PdsMessage):
    """One data chunk travelling back toward consumers."""

    chunk: Chunk = None  # type: ignore[assignment]

    def wire_size(self) -> int:
        cached = self.__dict__.get("_wire_size")
        if cached is not None:
            return cached
        return _memoize_size(
            self,
            self.base_size() + self.chunk.descriptor.wire_size() + self.chunk.size,
        )

    def correlation(self) -> Correlation:
        """Causal ids the link layer stamps on this message's frames."""
        return Correlation(
            response_id=self.message_id,
            chunk_id=self.chunk.chunk_id if self.chunk is not None else None,
        )

    def rewritten(
        self, sender_id: NodeId, receiver_ids: FrozenSet[NodeId]
    ) -> "ChunkResponse":
        """Per-hop rewrite; the response id is preserved for RR dedup."""
        return replace(self, sender_id=sender_id, receiver_ids=receiver_ids)


# ----------------------------------------------------------------------
# Baseline: multi-round data retrieval (MDR) — §VI-B-3
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MdrQuery(PdsMessage):
    """MDR round query: flood, requesting all chunks not yet received.

    ``have_chunk_ids`` is the explicit received-set (a bitmap on the wire;
    ``total_chunks`` bits), the baseline's redundancy-detection state.
    """

    item: DataDescriptor = None  # type: ignore[assignment]
    total_chunks: int = 0
    have_chunk_ids: FrozenSet[int] = frozenset()
    origin_id: NodeId = -1
    expires_at: float = float("inf")
    round_index: int = 0
    hop_count: int = 0

    def wire_size(self) -> int:
        cached = self.__dict__.get("_wire_size")
        if cached is not None:
            return cached
        bitmap = (self.total_chunks + 7) // 8
        return _memoize_size(
            self, self.base_size() + self.item.wire_size() + bitmap + 3
        )

    def correlation(self) -> Correlation:
        """Causal ids the link layer stamps on this message's frames."""
        return Correlation(
            query_id=self.message_id,
            round=self.round_index,
            consumer=self.origin_id,
            hop=self.hop_count,
        )

    def rewritten(
        self,
        sender_id: NodeId,
        receiver_ids: Optional[FrozenSet[NodeId]],
        have_chunk_ids: FrozenSet[int],
    ) -> "MdrQuery":
        return replace(
            self,
            sender_id=sender_id,
            receiver_ids=receiver_ids,
            have_chunk_ids=have_chunk_ids,
            hop_count=self.hop_count + 1,
        )


#: MDR reuses ChunkResponse for returning chunks.
MdrResponse = ChunkResponse
