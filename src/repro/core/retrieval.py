"""Peer Data Retrieval engines (§IV).

Phase 1 — :class:`CdiEngine` builds Chunk Distribution Information on
demand: a CDI query floods like a discovery query; every node holding
chunks or CDI entries of the item answers with ChunkId–HopCount pairs
relative to itself; relays update their own CDI tables (hop+1 via the
transmitting neighbor) and forward improved pairs along reverse paths.

Phase 2 — :class:`ChunkEngine` performs recursive chunk retrieval: a chunk
query directed at one neighbor is answered from the local store where
possible, and the remaining chunk ids are *divided* into sub-queries, each
directed at the nearest (load-balanced) next neighbor per the CDI table.
Chunk responses travel the reverse paths of the queries and are cached
opportunistically along the way.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.assignment import assign_chunks
from repro.core.lqt import LingeringEngine
from repro.core.messages import (
    CdiQuery,
    CdiResponse,
    ChunkQuery,
    ChunkResponse,
    next_message_id,
)
from repro.data.descriptor import DataDescriptor
from repro.net.topology import NodeId


def _item_key(item: DataDescriptor) -> str:
    """Compact JSON-safe identifier of an item for trace events."""
    return item.stable_key().hex()[:12]


class CdiEngine(LingeringEngine):
    """Phase 1: on-demand per-chunk distance-vector construction."""

    def issue_query(
        self, item: DataDescriptor, ttl: Optional[float] = None
    ) -> CdiQuery:
        """Flood a CDI query for ``item`` and register it as lingering."""
        device = self.device
        item = item.item_descriptor()
        if ttl is None:
            ttl = device.config.protocol.query_ttl_s
        expires_at = device.sim.now + ttl
        query = CdiQuery(
            message_id=next_message_id(),
            sender_id=device.node_id,
            receiver_ids=None,
            item=item,
            origin_id=device.node_id,
            expires_at=expires_at,
        )
        self._linger(query, is_origin=True)
        trace = device.sim.trace
        if trace.enabled:
            trace.emit(
                "query_issued",
                node=device.node_id,
                query_id=query.message_id,
                proto="cdi",
                consumer=device.node_id,
                item=_item_key(item),
                ttl=ttl,
                expires_at=expires_at,
            )
        self._send(query, "cdi_query")
        return query

    # ------------------------------------------------------------------
    def handle_query(self, query: CdiQuery, addressed: bool) -> None:
        """Answer with local ChunkId-HopCount pairs, then flood onward."""
        device = self.device
        now = device.sim.now
        entry = self._admit(query)
        if entry is None:
            return

        pairs = self._local_pairs(query.item)
        if pairs:
            self._emit_response(
                query.item, pairs, frozenset({query.sender_id}), query=query
            )
            for chunk_id, hop in pairs:
                entry.best_hop_sent[chunk_id] = hop

        if not addressed or now >= query.expires_at:
            return
        forwarded = query.rewritten(sender_id=device.node_id, receiver_ids=None)
        trace = device.sim.trace
        if trace.enabled:
            trace.emit(
                "query_forwarded",
                node=device.node_id,
                query_id=query.message_id,
                proto="cdi",
                consumer=query.origin_id,
                hop=forwarded.hop_count,
                expires_at=query.expires_at,
            )
        self._send(forwarded, "cdi_query")

    def _local_pairs(self, item: DataDescriptor) -> List[Tuple[int, int]]:
        """ChunkId–HopCount pairs this node can advertise for ``item``.

        Hop 0 for chunks held locally, otherwise the best CDI-table hop.
        """
        device = self.device
        pairs = dict.fromkeys(device.store.chunk_ids_of(item), 0)
        for chunk_id, hop in device.cdi_table.best_hops(item).items():
            pairs.setdefault(chunk_id, hop)
        return sorted(pairs.items())

    def _emit_response(
        self,
        item: DataDescriptor,
        pairs: List[Tuple[int, int]],
        receivers: FrozenSet[NodeId],
        query: Optional[CdiQuery] = None,
    ) -> None:
        device = self.device
        response = CdiResponse(
            message_id=next_message_id(),
            sender_id=device.node_id,
            receiver_ids=receivers,
            item=item,
            pairs=tuple(pairs),
            query_ids=(query.message_id,) if query is not None else (),
        )
        self.recent.seen_before(response.message_id)
        trace = device.sim.trace
        if trace.enabled:
            trace.emit(
                "response_sent",
                node=device.node_id,
                response_id=response.message_id,
                proto="cdi",
                query_id=query.message_id if query is not None else None,
                consumer=query.origin_id if query is not None else None,
                item=_item_key(item),
                pairs=len(pairs),
                size=response.wire_size(),
            )
        self._send(response, "cdi_response")

    # ------------------------------------------------------------------
    def handle_response(self, response: CdiResponse, addressed: bool) -> None:
        """Learn routes (hop+1 via sender) and relay improved pairs."""
        device = self.device
        if self.recent.seen_before(response.message_id):
            return
        # DS lookup: learn routes (hop+1 via the transmitting neighbor),
        # also from overheard responses.
        improved = device.cdi_table.update(
            response.item,
            response.pairs,
            response.sender_id,
            device.config.protocol.cdi_ttl_s,
        )
        trace = device.sim.trace
        if trace.enabled and improved:
            trace.emit(
                "cdi_update",
                node=device.node_id,
                item=_item_key(response.item),
                improved=improved,
                pairs=len(response.pairs),
                via=response.sender_id,
            )
        if not addressed:
            return
        # LQT lookup: route improved pairs toward lingering CDI queries.
        out_pairs: Dict[int, int] = {}
        receivers: Set[NodeId] = set()
        matched_query_ids: List[int] = []
        # One best-hop lookup per pair, made at the first matching entry
        # (a lookup may purge, so not before) and shared: nothing in this
        # loop changes the table or the store.
        best_hops: Optional[List[Tuple[int, int]]] = None
        for entry in self.lqt.live_entries():
            query = entry.query
            if entry.is_origin or query.item != response.item:
                continue
            if best_hops is None:
                best_hops = []
                for chunk_id, _ in response.pairs:
                    best = self._best_known_hop(response.item, chunk_id)
                    if best is not None:
                        best_hops.append((chunk_id, best))
            entry_pairs = []
            for chunk_id, best in best_hops:
                prev = entry.best_hop_sent.get(chunk_id)
                if prev is None or best < prev:
                    entry.best_hop_sent[chunk_id] = best
                    entry_pairs.append((chunk_id, best))
            if not entry_pairs:
                continue
            receivers.add(entry.upstream)
            matched_query_ids.append(query.message_id)
            for chunk_id, hop in entry_pairs:
                existing = out_pairs.get(chunk_id)
                out_pairs[chunk_id] = hop if existing is None else min(existing, hop)
        if not receivers or not out_pairs:
            return
        forwarded = response.rewritten(
            sender_id=device.node_id,
            receiver_ids=frozenset(receivers),
            pairs=tuple(sorted(out_pairs.items())),
            query_ids=tuple(matched_query_ids),
        )
        self._send(forwarded, "cdi_response")

    def _best_known_hop(self, item: DataDescriptor, chunk_id: int) -> Optional[int]:
        device = self.device
        if device.store.has_chunk(item.chunk_descriptor(chunk_id)):
            return 0
        return device.cdi_table.best_hop(item, chunk_id)


class ChunkEngine(LingeringEngine):
    """Phase 2: recursive, load-balanced chunk retrieval."""

    def _emit_assignment(
        self,
        item: DataDescriptor,
        assignment: Dict[NodeId, Set[int]],
        options: Dict[int, List[Tuple[NodeId, int]]],
        requested: int,
        divided: bool,
        query_id: Optional[int] = None,
    ) -> None:
        trace = self.device.sim.trace
        if trace.enabled and assignment:
            # Candidate (neighbor, hop) options and the chosen split ride
            # along so the offline audit can recompute the greedy least-hop
            # baseline and prove the chosen load never exceeds it.
            trace.emit(
                "chunk_assignment",
                node=self.device.node_id,
                item=_item_key(item),
                query_id=query_id,
                requested=requested,
                assigned=sum(len(ids) for ids in assignment.values()),
                neighbors=len(assignment),
                max_per_neighbor=max(len(ids) for ids in assignment.values()),
                divided=divided,
                options={
                    str(cid): [[n, h] for n, h in pairs]
                    for cid, pairs in sorted(options.items())
                },
                assignment={
                    str(n): sorted(ids) for n, ids in sorted(assignment.items())
                },
            )

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def request_chunks(
        self,
        item: DataDescriptor,
        chunk_ids: Set[int],
        ttl: Optional[float] = None,
    ) -> Dict[NodeId, Set[int]]:
        """Assign ``chunk_ids`` to nearest neighbors and send the queries.

        Returns:
            The assignment used (neighbor → chunk ids); chunks with no CDI
            entry are absent and must be retried after CDI refresh.
        """
        device = self.device
        item = item.item_descriptor()
        if ttl is None:
            ttl = device.config.protocol.query_ttl_s
        options = self._options(item, chunk_ids, exclude=None)
        assignment = assign_chunks(options, device.rng)
        self._emit_assignment(
            item, assignment, options, len(chunk_ids), divided=False
        )
        expires_at = device.sim.now + ttl
        trace = device.sim.trace
        for neighbor, ids in assignment.items():
            message_id = next_message_id()
            query = ChunkQuery(
                message_id=message_id,
                sender_id=device.node_id,
                receiver_ids=frozenset({neighbor}),
                item=item,
                chunk_ids=frozenset(ids),
                origin_id=device.node_id,
                expires_at=expires_at,
                root_id=message_id,
            )
            self._linger(query, is_origin=True)
            if trace.enabled:
                trace.emit(
                    "chunk_request",
                    node=device.node_id,
                    query_id=query.message_id,
                    root=query.root_id,
                    parent=None,
                    consumer=device.node_id,
                    neighbor=neighbor,
                    item=_item_key(item),
                    chunks=sorted(ids),
                    expires_at=expires_at,
                )
            self._send(query, "chunk_query")
        return assignment

    def _options(
        self,
        item: DataDescriptor,
        chunk_ids: Set[int],
        exclude: Optional[NodeId],
    ) -> Dict[int, List[Tuple[NodeId, int]]]:
        """CDI-table candidates per chunk, optionally excluding a neighbor."""
        device = self.device
        options: Dict[int, List[Tuple[NodeId, int]]] = {}
        for chunk_id in chunk_ids:
            entries = device.cdi_table.best_entries(item, chunk_id)
            candidates = [
                (entry.neighbor, entry.hop_count)
                for entry in entries
                if entry.neighbor != exclude
            ]
            if candidates:
                options[chunk_id] = candidates
        return options

    # ------------------------------------------------------------------
    # Query processing (recursive division)
    # ------------------------------------------------------------------
    def handle_query(self, query: ChunkQuery, addressed: bool) -> None:
        """Serve held chunks; recursively divide the rest per CDI (§IV-B)."""
        device = self.device
        now = device.sim.now
        entry = self._admit(query)
        if entry is None:
            return

        if not addressed or now >= query.expires_at:
            # Chunk queries are directed; overhearers only remember them so
            # they can route overheard chunks, never answer or divide.
            return

        # Serve chunks held locally.
        trace = device.sim.trace
        remaining: Set[int] = set()
        served = 0
        for chunk_id in query.chunk_ids:
            chunk = device.store.get_chunk(query.item.chunk_descriptor(chunk_id))
            if chunk is not None:
                entry.forwarded_keys.add(chunk_id)
                served += 1
                self._emit_chunk(chunk, frozenset({query.sender_id}))
            else:
                remaining.add(chunk_id)
        if trace.enabled and served:
            trace.emit(
                "chunk_served",
                node=device.node_id,
                item=_item_key(query.item),
                query_id=query.message_id,
                root=query.root_id or query.message_id,
                parent=query.parent_id or None,
                consumer=query.origin_id,
                served=served,
                requested=len(query.chunk_ids),
            )
        if not remaining:
            return

        # Recursive division of the rest among nearest next neighbors,
        # never back toward the upstream.
        options = self._options(query.item, remaining, exclude=query.sender_id)
        assignment = assign_chunks(options, device.rng)
        self._emit_assignment(
            query.item,
            assignment,
            options,
            len(remaining),
            divided=True,
            query_id=query.message_id,
        )
        for neighbor, ids in assignment.items():
            sub_query = query.divided(
                sender_id=device.node_id,
                receiver=neighbor,
                chunk_ids=frozenset(ids),
            )
            if trace.enabled:
                trace.emit(
                    "chunk_request",
                    node=device.node_id,
                    query_id=sub_query.message_id,
                    root=sub_query.root_id,
                    parent=query.message_id,
                    consumer=query.origin_id,
                    neighbor=neighbor,
                    item=_item_key(query.item),
                    chunks=sorted(ids),
                    expires_at=sub_query.expires_at,
                )
            self._send(sub_query, "chunk_query")

    def _emit_chunk(self, chunk, receivers: FrozenSet[NodeId]) -> None:
        device = self.device
        response = ChunkResponse(
            message_id=next_message_id(),
            sender_id=device.node_id,
            receiver_ids=receivers,
            chunk=chunk,
        )
        self.recent.seen_before(response.message_id)
        self._send(response, "chunk_response")

    # ------------------------------------------------------------------
    # Response processing (reverse-path relay + caching)
    # ------------------------------------------------------------------
    def handle_response(self, response: ChunkResponse, addressed: bool) -> None:
        """Cache the chunk and relay it along lingering reverse paths."""
        device = self.device
        if self.recent.seen_before(response.message_id):
            return
        protocol = device.config.protocol
        chunk = response.chunk
        if not addressed:
            # Nothing is routed, but a lingering entry that has lapsed
            # still expires at this instant.
            self.lqt.purge()
            if protocol.cache_overheard_chunks:
                device.cache_chunk(chunk)
            return
        for_me = self._is_for_me(response)
        if protocol.cache_relayed_chunks or for_me or device.mdr.wants(chunk):
            device.cache_chunk(chunk)
        if for_me:
            trace = device.sim.trace
            if trace.enabled:
                trace.emit(
                    "chunk_received",
                    node=device.node_id,
                    response_id=response.message_id,
                    item=_item_key(chunk.item_descriptor),
                    chunk_id=chunk.chunk_id,
                )
        # Cache listeners may have changed the table: walk it again.
        receivers: Set[NodeId] = set()
        for entry in self.lqt.live_entries():
            query = entry.query
            if query.item != chunk.item_descriptor:
                continue
            if chunk.chunk_id not in query.chunk_ids:
                continue
            if chunk.chunk_id in entry.forwarded_keys:
                continue
            entry.forwarded_keys.add(chunk.chunk_id)
            if entry.is_origin:
                continue
            receivers.add(entry.upstream)
        if not receivers:
            return
        forwarded = response.rewritten(
            sender_id=device.node_id, receiver_ids=frozenset(receivers)
        )
        self._send(forwarded, "chunk_response")

    def _is_for_me(self, response: ChunkResponse) -> bool:
        chunk = response.chunk
        for entry in self.lqt.live_entries():
            query = entry.query
            if (
                entry.is_origin
                and query.item == chunk.item_descriptor
                and chunk.chunk_id in query.chunk_ids
            ):
                return True
        return False
