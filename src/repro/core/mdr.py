"""The Multi-round Data Retrieval (MDR) baseline (§VI-B-3).

MDR retrieves a large data item the way PDD retrieves metadata: the
consumer floods a query per round requesting all chunks not yet received;
every node holding requested chunks replies them along the reverse path;
redundancy detection (the explicit received-chunk set in the query,
rewritten en-route, plus per-query forwarded-chunk tracking at relays)
suppresses duplicates *along one reverse path* — but copies travelling
different reverse paths still duplicate, which is why MDR's cost grows
almost linearly with chunk redundancy while PDR's stays flat (Fig. 13/14).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, Optional, Set

from repro.core.lqt import LingeringEntry, LingeringQueryTable, RecentResponses
from repro.core.messages import ChunkResponse, MdrQuery, next_message_id
from repro.core.retrieval import _item_key
from repro.data.descriptor import DataDescriptor
from repro.data.item import Chunk
from repro.net.topology import NodeId

if TYPE_CHECKING:
    from repro.node.device import Device


class MdrEngine:
    """Per-device MDR responder/relay."""

    def __init__(self, device: "Device") -> None:
        self.device = device
        self.lqt = LingeringQueryTable(
            clock=lambda: device.sim.now,
            trace=device.sim.trace,
            node=device.node_id,
        )
        self.recent = RecentResponses()
        #: Chunk frames we queued but that may still be withdrawn if a
        #: duplicate is overheard before they reach the air.
        self._pending_frames = {}
        self.suppressed_frames = 0

    # ------------------------------------------------------------------
    def issue_round(
        self,
        item: DataDescriptor,
        total_chunks: int,
        have_chunk_ids: Set[int],
        round_index: int,
        ttl: Optional[float] = None,
    ) -> MdrQuery:
        """Flood one round's query requesting all chunks not in ``have``."""
        device = self.device
        item = item.item_descriptor()
        if ttl is None:
            ttl = device.config.protocol.query_ttl_s
        expires_at = device.sim.now + ttl
        query = MdrQuery(
            message_id=next_message_id(),
            sender_id=device.node_id,
            receiver_ids=None,
            item=item,
            total_chunks=total_chunks,
            have_chunk_ids=frozenset(have_chunk_ids),
            origin_id=device.node_id,
            expires_at=expires_at,
            round_index=round_index,
        )
        self.lqt.insert(
            LingeringEntry(
                query=query,
                upstream=device.node_id,
                expires_at=expires_at,
                is_origin=True,
            ),
            query.message_id,
        )
        trace = device.sim.trace
        if trace.enabled:
            trace.emit(
                "query_issued",
                node=device.node_id,
                query_id=query.message_id,
                proto="mdr",
                round=round_index,
                consumer=device.node_id,
                item=_item_key(item),
                missing=total_chunks - len(have_chunk_ids),
                ttl=ttl,
                expires_at=expires_at,
            )
        device.face.send(
            query, query.wire_size(), receivers=None, kind="mdr_query", reliable=True
        )
        return query

    #: Maximum random holdoff before serving a chunk (broadcast-storm
    #: suppression: a holder that overhears another copy of the same chunk
    #: during the holdoff cancels its own redundant reply).
    REPLY_HOLDOFF_S = 0.6

    # ------------------------------------------------------------------
    def handle_query(self, query: MdrQuery, addressed: bool) -> None:
        """Serve requested held chunks (after holdoff) and re-flood."""
        device = self.device
        now = device.sim.now
        if self.lqt.exists(query.message_id):
            return
        entry = LingeringEntry(
            query=query, upstream=query.sender_id, expires_at=query.expires_at
        )
        self.lqt.insert(entry, query.message_id)

        # DS lookup: reply requested chunks this node holds — after a short
        # random holdoff so copies overheard meanwhile suppress duplicates.
        held: Set[int] = set()
        for chunk_id in device.store.chunk_ids_of(query.item):
            if chunk_id in query.have_chunk_ids or chunk_id >= query.total_chunks:
                continue
            held.add(chunk_id)
            holdoff = device.rng.uniform(0.0, self.REPLY_HOLDOFF_S)
            device.sim.schedule(
                holdoff, self._serve_chunk, query.message_id, chunk_id
            )

        if not addressed or now >= query.expires_at:
            return
        # En-route rewriting: downstream nodes skip chunks this node will
        # reply itself.
        forwarded = query.rewritten(
            sender_id=device.node_id,
            receiver_ids=None,
            have_chunk_ids=query.have_chunk_ids | frozenset(held),
        )
        trace = device.sim.trace
        if trace.enabled:
            trace.emit(
                "query_forwarded",
                node=device.node_id,
                query_id=query.message_id,
                proto="mdr",
                round=query.round_index,
                consumer=query.origin_id,
                hop=forwarded.hop_count,
                responded=len(held),
                expires_at=query.expires_at,
            )
        device.face.send(
            forwarded,
            forwarded.wire_size(),
            receivers=None,
            kind="mdr_query",
            reliable=True,
        )

    def _serve_chunk(self, query_id: int, chunk_id: int) -> None:
        """Deferred reply: skipped if the chunk was served meanwhile."""
        device = self.device
        entry = self.lqt.get(query_id)
        if entry is None or chunk_id in entry.forwarded_keys:
            return
        query = entry.query
        chunk = device.store.get_chunk(query.item.chunk_descriptor(chunk_id))
        if chunk is None:
            return
        entry.forwarded_keys.add(chunk_id)
        trace = device.sim.trace
        if trace.enabled:
            trace.emit(
                "chunk_served",
                node=device.node_id,
                item=_item_key(query.item),
                query_id=query_id,
                proto="mdr",
                consumer=query.origin_id,
                chunk_id=chunk_id,
                served=1,
                requested=query.total_chunks - len(query.have_chunk_ids),
            )
        self._emit_chunk(chunk, frozenset({entry.upstream}), query_id=query_id)

    def _emit_chunk(
        self, chunk, receivers: FrozenSet[NodeId], query_id: Optional[int] = None
    ) -> None:
        device = self.device
        response = ChunkResponse(
            message_id=next_message_id(),
            sender_id=device.node_id,
            receiver_ids=receivers,
            chunk=chunk,
        )
        self.recent.seen_before(response.message_id)
        frame = device.face.send(
            response,
            response.wire_size(),
            receivers=receivers,
            kind="chunk_response",
            reliable=True,
        )
        if query_id is not None:
            self._register_pending(query_id, chunk.chunk_id, frame)

    def _register_pending(self, query_id: int, chunk_id: int, frame) -> None:
        self._pending_frames[(query_id, chunk_id)] = frame
        if len(self._pending_frames) > 4096:
            for key in list(self._pending_frames)[:2048]:
                del self._pending_frames[key]

    def _withdraw_pending(self, query_id: int, chunk_id: int) -> None:
        """Late suppression: cancel a queued duplicate that has not aired.

        256 KB frames spend whole seconds in pacing queues under load; a
        copy overheard meanwhile makes ours redundant, and withdrawing it
        (plus its retransmission state) is what keeps MDR's duplicate
        traffic bounded at high redundancy.
        """
        frame = self._pending_frames.pop((query_id, chunk_id), None)
        if frame is None:
            return
        face = self.device.face
        removed = face.bucket.remove(frame)
        if not removed:
            removed = face.radio.remove(frame)
        if removed:
            self.suppressed_frames += 1
            face.sender.cancel_frame(frame.frame_id)

    def wants(self, chunk: Chunk) -> bool:
        """Whether a live MDR query this node issued still asks for ``chunk``."""
        for entry in self.lqt.live_entries():
            query = entry.query
            if (
                entry.is_origin
                and isinstance(query, MdrQuery)
                and query.item == chunk.item_descriptor
                and chunk.chunk_id not in query.have_chunk_ids
            ):
                return True
        return False

    # ------------------------------------------------------------------
    def handle_response(self, response: ChunkResponse, addressed: bool) -> None:
        """Suppress overheard duplicates and relay along reverse paths.

        Caching is the chunk engine's alone (the device dispatches every
        ``ChunkResponse`` to both engines), so the ``cache_relayed_chunks``
        and ``cache_overheard_chunks`` switches hold for MDR traffic too.
        """
        device = self.device
        if self.recent.seen_before(response.message_id):
            return
        chunk = response.chunk
        if not addressed:
            # Overhearing-based suppression: another node already put this
            # chunk on the air nearby; cancel our own later replies for
            # the same lingering queries — and withdraw copies already
            # queued but not yet transmitted.
            for entry in self.lqt.live_entries():
                query = entry.query
                if (
                    isinstance(query, MdrQuery)
                    and not entry.is_origin
                    and query.item == chunk.item_descriptor
                ):
                    entry.forwarded_keys.add(chunk.chunk_id)
                    self._withdraw_pending(query.message_id, chunk.chunk_id)
            return
        receivers: Set[NodeId] = set()
        matched_queries = []
        for entry in self.lqt.live_entries():
            query = entry.query
            if not isinstance(query, MdrQuery):
                continue
            if query.item != chunk.item_descriptor:
                continue
            chunk_id = chunk.chunk_id
            if chunk_id in query.have_chunk_ids or chunk_id in entry.forwarded_keys:
                continue
            entry.forwarded_keys.add(chunk_id)
            if entry.is_origin:
                continue
            receivers.add(entry.upstream)
            matched_queries.append(query.message_id)
        if not receivers:
            return
        forwarded = response.rewritten(
            sender_id=device.node_id, receiver_ids=frozenset(receivers)
        )
        frame = device.face.send(
            forwarded,
            forwarded.wire_size(),
            receivers=forwarded.receiver_ids,
            kind="chunk_response",
            reliable=True,
        )
        # Track for late suppression only when the relayed copy serves a
        # single query — withdrawing a multi-query frame could starve the
        # consumer whose duplicate was *not* overheard.
        if len(matched_queries) == 1:
            self._register_pending(matched_queries[0], chunk.chunk_id, frame)
