"""Peer Data Discovery: Algorithms 1 and 2 of §III.

The engine runs on *every* device (any node can respond and relay).  It
implements:

* **Algorithm 1** (query processing): LQT lookup → DS lookup → receiver
  check → forwarding, with the §III-B-2 refinements — responses pruned by
  the query's Bloom filter and the query rewritten en-route so downstream
  nodes do not return entries this node just sent.
* **Algorithm 2** (response processing): RR lookup → DS lookup
  (opportunistic caching, even for overheard frames) → receiver check →
  LQT lookup → mixedcast forwarding, where one relayed response carries the
  union of entries still needed by matching downstream queries and each
  matched query's Bloom filter is updated (en-route rewriting).

Small-data retrieval (§IV intro: "collecting many small data items ...
follows almost the same process as metadata discovery") reuses the same
engine with ``want_payload=True``: DS lookup then matches stored chunks and
responses carry the payloads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.lqt import LingeringEngine, LingeringEntry
from repro.core.messages import (
    DiscoveryQuery,
    DiscoveryResponse,
    next_message_id,
)
from repro.data.descriptor import DataDescriptor
from repro.data.item import Chunk
from repro.data.predicate import QuerySpec


def _chunk_key(chunk: Chunk) -> bytes:
    return chunk.descriptor.stable_key()


class DiscoveryEngine(LingeringEngine):
    """Per-device PDD responder/relay."""

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def issue_query(
        self,
        spec: QuerySpec,
        bloom: object,
        round_index: int = 0,
        want_payload: bool = False,
        ttl: Optional[float] = None,
    ) -> DiscoveryQuery:
        """Create, register and flood a new lingering query."""
        device = self.device
        if ttl is None:
            ttl = device.config.protocol.query_ttl_s
        expires_at = device.sim.now + ttl
        query = DiscoveryQuery(
            message_id=next_message_id(),
            sender_id=device.node_id,
            receiver_ids=None,
            spec=spec,
            origin_id=device.node_id,
            expires_at=expires_at,
            bloom=bloom,
            round_index=round_index,
            want_payload=want_payload,
        )
        self._linger(query, is_origin=True)
        trace = device.sim.trace
        if trace.enabled:
            # The issued filter's exact bits ride along so the offline
            # audit can prove responses never carry already-covered keys.
            bloom_fields = (
                bloom.trace_fields() if hasattr(bloom, "trace_fields") else {}
            )
            trace.emit(
                "query_issued",
                node=device.node_id,
                query_id=query.message_id,
                proto="pdd",
                round=round_index,
                consumer=device.node_id,
                want_payload=want_payload,
                ttl=ttl,
                expires_at=expires_at,
                **bloom_fields,
            )
        self._send(query, "query")
        return query

    # ------------------------------------------------------------------
    # Algorithm 1: query processing
    # ------------------------------------------------------------------
    def handle_query(self, query: DiscoveryQuery, addressed: bool) -> None:
        """Algorithm 1: LQT lookup, DS lookup, receiver check, forwarding."""
        device = self.device
        now = device.sim.now
        # {LQT Lookup} — drop redundant copies of the same query.
        entry = self._admit(query)
        if entry is None:
            return

        # {DS Lookup} — reply matching content, pruned by the Bloom filter.
        sent_keys = self._respond_from_store(query, entry)

        # {Receiver Check} — overhearers respond but do not relay.
        if not addressed or now >= query.expires_at:
            return

        # {Forwarding} — rewrite the query: new sender, Bloom filter updated
        # with the entries just sent so downstream nodes skip them.
        forwarded = query.rewritten(
            sender_id=device.node_id,
            receiver_ids=None,
            bloom=entry.bloom.copy(),
        )
        trace = device.sim.trace
        if trace.enabled:
            trace.emit(
                "query_forwarded",
                node=device.node_id,
                query_id=query.message_id,
                proto="pdd",
                round=query.round_index,
                consumer=query.origin_id,
                hop=forwarded.hop_count,
                responded=sent_keys,
                expires_at=query.expires_at,
            )
        self._send(forwarded, "query")

    def _respond_from_store(
        self, query: DiscoveryQuery, entry: LingeringEntry
    ) -> int:
        """Send response messages for matching local content; returns count."""
        device = self.device
        bloom = entry.bloom
        if query.want_payload:
            candidates = list(device.store.match_chunks(query.spec))
            key = _chunk_key
        else:
            candidates = list(device.store.match_metadata(query.spec))
            key = DataDescriptor.stable_key
        matches = [c for c in candidates if key(c) not in bloom]
        trace = device.sim.trace
        if trace.enabled and candidates:
            # Prune hits = matches the query's filter already covers.
            trace.emit(
                "bloom_prune",
                node=device.node_id,
                query_id=query.message_id,
                round=query.round_index,
                consumer=query.origin_id,
                hits=len(candidates) - len(matches),
                misses=len(matches),
            )
        if not matches:
            return 0
        for match in matches:
            bloom.insert(key(match))
        self._send_responses(query, matches)
        return len(matches)

    # ------------------------------------------------------------------
    # Response packing
    # ------------------------------------------------------------------
    def _send_responses(self, query: DiscoveryQuery, matches: List) -> None:
        """Pack descriptors (or, for a payload query, small items) into
        frames of at most the configured size."""
        payload = query.want_payload
        receivers = frozenset({query.sender_id})
        limit = self.device.config.protocol.max_response_payload_bytes
        batch: List = []
        batch_bytes = 0
        for match in matches:
            if payload:
                size = match.descriptor.wire_size() + match.size
            else:
                size = match.wire_size()
            if batch and batch_bytes + size > limit:
                self._emit_response(query, tuple(batch), receivers)
                batch = []
                batch_bytes = 0
            batch.append(match)
            batch_bytes += size
        if batch:
            self._emit_response(query, tuple(batch), receivers)

    def _emit_response(
        self, query: DiscoveryQuery, batch: Tuple, receivers: frozenset
    ) -> None:
        device = self.device
        if query.want_payload:
            entries: Tuple[DataDescriptor, ...] = ()
            payloads: Tuple[Chunk, ...] = batch
        else:
            entries, payloads = batch, ()
        response = DiscoveryResponse(
            message_id=next_message_id(),
            sender_id=device.node_id,
            receiver_ids=receivers,
            entries=entries,
            payloads=payloads,
            round_index=query.round_index,
            query_ids=(query.message_id,),
        )
        # Own responses are never re-processed when overheard back.
        self.recent.seen_before(response.message_id)
        trace = device.sim.trace
        if trace.enabled:
            sent_keys = [e.stable_key().hex() for e in entries]
            sent_keys.extend(c.descriptor.stable_key().hex() for c in payloads)
            trace.emit(
                "response_sent",
                node=device.node_id,
                response_id=response.message_id,
                proto="pdd",
                query_id=query.message_id,
                consumer=query.origin_id,
                round=query.round_index,
                entries=len(entries),
                payloads=len(payloads),
                size=response.wire_size(),
                keys=sent_keys,
            )
        self._send(response, "response")

    # ------------------------------------------------------------------
    # Algorithm 2: response processing
    # ------------------------------------------------------------------
    def handle_response(self, response: DiscoveryResponse, addressed: bool) -> None:
        """Algorithm 2: RR lookup, caching, receiver check, mixedcast relay."""
        device = self.device
        # {RR Lookup} — drop copies already heard from other neighbors.
        if self.recent.seen_before(response.message_id):
            return

        # {DS Lookup} — opportunistic caching, also for overheard frames.
        device.cache_metadata(response.entries)
        for chunk in response.payloads:
            device.cache_chunk(chunk)

        # {Receiver Check} — only nodes on the reverse path continue.
        if not addressed:
            return

        # {LQT Lookup} + {Forwarding} — mixedcast with en-route rewriting.
        union_entries: Dict[DataDescriptor, None] = {}
        union_payloads: Dict[DataDescriptor, Chunk] = {}
        receivers = set()
        matched_query_ids: List[int] = []
        for entry in self.lqt.live_entries():
            query = entry.query
            wanted_entries = [
                d
                for d in response.entries
                if query.spec.matches(d) and d.stable_key() not in entry.bloom
            ]
            wanted_payloads = [
                c
                for c in response.payloads
                if query.spec.matches(c.descriptor)
                and c.descriptor.stable_key() not in entry.bloom
            ]
            if not wanted_entries and not wanted_payloads:
                continue
            for d in wanted_entries:
                entry.bloom.insert(d.stable_key())
            for c in wanted_payloads:
                entry.bloom.insert(c.descriptor.stable_key())
            if entry.is_origin:
                # Arrived home: delivery to the application happened via the
                # cache listeners in the DS-lookup step.
                continue
            receivers.add(entry.upstream)
            matched_query_ids.append(query.message_id)
            for d in wanted_entries:
                union_entries[d] = None
            for c in wanted_payloads:
                union_payloads[c.descriptor] = c
        if not receivers or (not union_entries and not union_payloads):
            return
        forwarded = response.rewritten(
            sender_id=device.node_id,
            receiver_ids=frozenset(receivers),
            entries=tuple(union_entries),
            payloads=tuple(union_payloads.values()),
            query_ids=tuple(matched_query_ids),
        )
        trace = device.sim.trace
        if trace.enabled:
            merged_keys = [d.stable_key().hex() for d in union_entries]
            merged_keys.extend(d.stable_key().hex() for d in union_payloads)
            trace.emit(
                "mixedcast_merge",
                node=device.node_id,
                response_id=response.message_id,
                entries=len(union_entries),
                payloads=len(union_payloads),
                receivers=len(receivers),
                query_ids=matched_query_ids,
                keys=merged_keys,
            )
        self._send(forwarded, "response")
