"""One-shot Interest discovery: the CCN/NDN-style baseline (§VIII).

The paper argues that CCN/NDN Interests — removed from the PIT upon a
*single* returning Data message — force a consumer to send "many Interest
messages ... to retrieve all matching metadata entries", whereas one
lingering query guides a whole stream of responses.  This module
implements that baseline so the claim can be measured:

* an :class:`InterestQuery` floods like a PDD query and creates a PIT
  entry at each node;
* a node holding matching entries answers with at most **one**
  :class:`InterestData` message (one Interest retrieves one Data);
* relaying a Data message **consumes** the PIT entry — later Data for the
  same Interest is not forwarded;
* the consumer (:class:`InterestDiscoverySession`) must therefore re-issue
  Interests, one per Data message it hopes to receive, until an Interest
  goes unanswered.

Bloom-filter redundancy detection is kept identical to PDD so the
comparison isolates the lingering-vs-one-shot difference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, List, Optional, Set, Tuple

from repro.bloom.bloom_filter import make_round_filter
from repro.core.lqt import LingeringEngine, RecentResponses
from repro.core.messages import next_message_id
from repro.data.descriptor import DataDescriptor
from repro.data.predicate import QuerySpec
from repro.errors import ConfigurationError
from repro.net.topology import NodeId
from repro.sim.process import Timer

if TYPE_CHECKING:
    from repro.node.device import Device


@dataclass(frozen=True)
class InterestQuery:
    """A one-shot Interest (PIT semantics)."""

    message_id: int
    sender_id: NodeId
    receiver_ids: Optional[frozenset]
    spec: QuerySpec = QuerySpec()
    origin_id: NodeId = -1
    expires_at: float = float("inf")
    bloom: object = None
    hop_count: int = 0

    def base_size(self) -> int:
        """Header bytes incl. the receiver list."""
        from repro.core.messages import MESSAGE_HEADER_BYTES, RECEIVER_ID_BYTES

        receivers = (
            0 if self.receiver_ids is None else RECEIVER_ID_BYTES * len(self.receiver_ids)
        )
        return MESSAGE_HEADER_BYTES + receivers

    def wire_size(self) -> int:
        """Approximate serialized size in bytes."""
        bloom_size = self.bloom.wire_size() if hasattr(self.bloom, "wire_size") else 0
        return self.base_size() + self.spec.wire_size() + bloom_size + 3

    def rewritten(self, sender_id: NodeId) -> "InterestQuery":
        """Per-hop forwarded copy (hop count incremented)."""
        return replace(
            self, sender_id=sender_id, hop_count=self.hop_count + 1
        )


@dataclass(frozen=True)
class InterestData:
    """The single Data message answering one Interest."""

    message_id: int
    sender_id: NodeId
    receiver_ids: frozenset
    interest_id: int = -1
    entries: Tuple[DataDescriptor, ...] = ()

    def wire_size(self) -> int:
        """Approximate serialized size in bytes."""
        from repro.core.messages import MESSAGE_HEADER_BYTES, RECEIVER_ID_BYTES

        return (
            MESSAGE_HEADER_BYTES
            + RECEIVER_ID_BYTES * len(self.receiver_ids)
            + 8
            + sum(e.wire_size() for e in self.entries)
        )

    def rewritten(self, sender_id: NodeId, receiver_ids: frozenset) -> "InterestData":
        """Per-hop relayed copy (same Data id for dedup)."""
        return replace(self, sender_id=sender_id, receiver_ids=receiver_ids)


class InterestEngine(LingeringEngine):
    """Per-device PIT-based responder/relay for the baseline.

    ``lqt`` is the PIT: its entries are *consumed* on first matching Data.
    """

    def __init__(self, device: "Device") -> None:
        super().__init__(device)
        #: Nonce-style dedup, separate from the PIT: a consumed entry must
        #: not make redundant flooded copies look new again (NDN keeps a
        #: dead-nonce list for exactly this).
        self.seen_interests = RecentResponses()

    # ------------------------------------------------------------------
    def issue_interest(
        self,
        spec: QuerySpec,
        bloom: object,
        ttl: Optional[float] = None,
    ) -> InterestQuery:
        """Flood one Interest; at most one Data message comes back."""
        device = self.device
        if ttl is None:
            ttl = device.config.protocol.query_ttl_s
        expires_at = device.sim.now + ttl
        interest = InterestQuery(
            message_id=next_message_id(),
            sender_id=device.node_id,
            receiver_ids=None,
            spec=spec,
            origin_id=device.node_id,
            expires_at=expires_at,
            bloom=bloom,
        )
        self.seen_interests.seen_before(interest.message_id)
        self._linger(interest, is_origin=True)
        self._send(interest, "interest")
        return interest

    # ------------------------------------------------------------------
    def handle_query(self, interest: InterestQuery, addressed: bool) -> None:
        """PIT insert; answer with at most ONE Data; else forward."""
        device = self.device
        now = device.sim.now
        if self.seen_interests.seen_before(interest.message_id):
            return
        entry = self._linger(interest)

        # Answer with AT MOST ONE Data message (the one-shot semantics).
        matches = [
            d
            for d in device.store.match_metadata(interest.spec)
            if d.stable_key() not in entry.bloom
        ]
        if matches:
            limit = device.config.protocol.max_response_payload_bytes
            batch: List[DataDescriptor] = []
            batch_bytes = 0
            for descriptor in matches:
                size = descriptor.wire_size()
                if batch and batch_bytes + size > limit:
                    break
                batch.append(descriptor)
                batch_bytes += size
            for descriptor in batch:
                entry.bloom.insert(descriptor.stable_key())
            data = InterestData(
                message_id=next_message_id(),
                sender_id=device.node_id,
                receiver_ids=frozenset({interest.sender_id}),
                interest_id=interest.message_id,
                entries=tuple(batch),
            )
            self.recent.seen_before(data.message_id)
            self._send(data, "interest_data")
            # Answering locally consumes this node's PIT entry: the
            # Interest is satisfied from its point of view.
            self.lqt.remove(interest.message_id)
            return

        if not addressed or now >= interest.expires_at:
            return
        self._send(interest.rewritten(sender_id=device.node_id), "interest")

    # ------------------------------------------------------------------
    def handle_response(self, data: InterestData, addressed: bool) -> None:
        """Cache entries; forward once, consuming the PIT entry."""
        device = self.device
        if self.recent.seen_before(data.message_id):
            return
        device.cache_metadata(data.entries)
        if not addressed:
            return
        entry = self.lqt.get(data.interest_id)
        if entry is None:
            return
        # Consume the PIT entry: one Interest, one Data (§VIII).
        self.lqt.remove(data.interest_id)
        if entry.is_origin:
            return
        forwarded = data.rewritten(
            sender_id=device.node_id,
            receiver_ids=frozenset({entry.upstream}),
        )
        self._send(forwarded, "interest_data")


class InterestDiscoverySession:
    """Consumer driving repeated one-shot Interests to exhaustion.

    Issues an Interest, waits for its single Data (or a timeout), then
    issues the next with an updated Bloom filter; stops after
    ``max_idle_interests`` consecutive unanswered Interests.
    """

    def __init__(
        self,
        device: "Device",
        spec: Optional[QuerySpec] = None,
        interest_timeout_s: float = 1.0,
        max_idle_interests: int = 2,
        max_interests: int = 10_000,
        on_complete: Optional[Callable[["InterestDiscoverySession"], None]] = None,
    ) -> None:
        self.device = device
        self.spec = spec if spec is not None else QuerySpec()
        self.interest_timeout_s = interest_timeout_s
        self.max_idle_interests = max_idle_interests
        self.max_interests = max_interests
        self.on_complete = on_complete
        self.received: Set[DataDescriptor] = set()
        self.interests_sent = 0
        self.started_at = 0.0
        self.last_new_at: Optional[float] = None
        self.done = False
        self._idle = 0
        self._new_since_interest = 0
        self._timer = Timer(device.sim, self._interest_timed_out)
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Seed from the local store and send the first Interest."""
        if self._started:
            raise ConfigurationError("session already started")
        self._started = True
        device = self.device
        self.started_at = device.sim.now
        device.metadata_listeners.append(self._on_metadata)
        for descriptor in device.store.match_metadata(self.spec):
            self.received.add(descriptor)
        self._issue_next()

    @property
    def latency(self) -> float:
        """Start → last new entry (comparable to PDD's latency metric)."""
        if self.last_new_at is None:
            return 0.0
        return self.last_new_at - self.started_at

    # ------------------------------------------------------------------
    def _issue_next(self) -> None:
        if self.done:
            return
        if self.interests_sent >= self.max_interests:
            self._finish()
            return
        self.interests_sent += 1
        self._new_since_interest = 0
        bloom = make_round_filter(
            (d.stable_key() for d in self.received),
            round_index=self.interests_sent,
            false_positive_rate=self.device.config.protocol.bloom_false_positive_rate,
            max_bits=self.device.config.protocol.bloom_max_bits,
        )
        self.device.interest.issue_interest(self.spec, bloom)
        self._timer.start(self.interest_timeout_s)

    def _interest_timed_out(self) -> None:
        if self._new_since_interest == 0:
            self._idle += 1
        else:
            self._idle = 0
        if self._idle >= self.max_idle_interests:
            self._finish()
        else:
            self._issue_next()

    def _on_metadata(self, descriptor: DataDescriptor) -> None:
        if self.done or not self.spec.matches(descriptor):
            return
        if descriptor in self.received:
            return
        self.received.add(descriptor)
        self.last_new_at = self.device.sim.now
        self._new_since_interest += 1

    def _finish(self) -> None:
        self.done = True
        self._timer.cancel()
        if self._on_metadata in self.device.metadata_listeners:
            self.device.metadata_listeners.remove(self._on_metadata)
        if self.on_complete is not None:
            self.on_complete(self)
