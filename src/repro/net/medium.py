"""The shared broadcast wireless medium.

Replaces the paper's NS-3 802.11 stack with an event-driven model that
reproduces the effects the evaluation depends on:

* **airtime** — a transmission occupies the channel for
  ``preamble + bits / broadcast_rate`` seconds;
* **carrier sense** — radios ask :meth:`busy_until` before transmitting
  and defer with random backoff while any sensed node is on the air.
  Physical carrier sense reaches ``carrier_sense_factor`` × the
  communication range (energy detection works below decoding SNR), which
  suppresses most hidden terminals, as on real hardware;
* **hidden-terminal collisions** — a receiver loses a frame when another
  in-range transmission overlaps it in time;
* **half-duplex receivers** — a node transmitting during a frame's airtime
  cannot receive it;
* **base loss** — a small independent per-delivery loss probability models
  fading and residual interference;
* **overhearing** — every surviving delivery goes to *all* in-range nodes,
  not only addressed ones, which is what enables opportunistic caching.

Collisions and half-duplex conflicts are detected *event-driven*: each
transmission start marks the overlapping receptions it ruins, so delivery
is O(1) instead of scanning transmission history.

Cost model.  Carrier sense is *pushed* at transmission time, not
scanned at query time: :meth:`transmit` raises a ``node → latest airtime
end of any sender within sense range, itself included`` entry for the
sender and its memoised sense-range neighbours, so :meth:`busy_until`
(one per CSMA attempt) is one dict lookup.  The medium also keeps the
largest end pushed since the map was built: no entry exceeds it, so a
push whose end is at or above it stores ``end`` for every node without
comparing, and only a push below it keeps the per-node max.  That map
is valid for one ``Topology.version``; after a mutation the next query
rebuilds it (and resets the bound) from the senders on the air at their
current positions.  A ``sender → latest airtime end`` map answers
:meth:`node_transmitting` and the half-duplex test by comparing ends
with ``now``, so nothing is pruned.  Receptions cost no objects: a
transmission keeps the memoised neighbour list as its receivers and a
``ruined`` map that stays ``None`` until a receiver is marked, and each
node remembers the transmission it hears (an ``_Overlap`` list only
while two are on the air at once).  A reception
is in progress exactly while its ``end > now``, so delivery removes
nothing.  Delivery bumps each counter and the per-hop latency histogram
once per frame, and re-checks a receiver's range only when the topology
mutated since the frame went on the air.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Union

from repro.net.message import Frame, frame_corr_fields
from repro.net.stats import NetworkStats
from repro.net.topology import NodeId, Topology
from repro.sim.simulator import Simulator

#: MAC broadcast data rate (802.11n 20 MHz broadcast ≈ 7.2 Mbps, §V-2).
DEFAULT_BROADCAST_RATE_BPS = 7.2e6

#: Fixed per-frame channel time (preamble, MAC framing, DIFS...).
DEFAULT_PREAMBLE_S = 0.3e-3

#: Default independent per-delivery loss probability.
DEFAULT_BASE_LOSS = 0.02

#: Physical carrier sense reaches beyond the communication range in 802.11.
DEFAULT_CARRIER_SENSE_FACTOR = 2.0


class _Transmission:
    """One in-flight transmission and the receptions it ruined."""

    __slots__ = ("start", "end", "frame", "version", "receivers", "ruined")

    def __init__(
        self, start: float, end: float, frame: Frame, version: int, receivers: List[NodeId]
    ) -> None:
        self.start = start
        self.end = end
        self.frame = frame
        #: ``Topology.version`` when the receivers were picked.
        self.version = version
        #: The topology's memoised neighbour list at ``version`` (shared
        #: with the topology, which never mutates it).
        self.receivers = receivers
        #: Receiver -> loss reason, ``None`` until a reception is ruined.
        #: A busy receiver outranks a collision.
        self.ruined: Optional[Dict[NodeId, str]] = None

    def ruin(self, receiver: NodeId, reason: str) -> None:
        if self.ruined is None:
            self.ruined = {}
        if reason == "busy_receiver" or receiver not in self.ruined:
            self.ruined[receiver] = reason


class _Overlap(list):
    """Two or more transmissions a node hears at once; ``end`` is the latest."""

    __slots__ = ("end",)


def _in_progress(heard: Union[_Transmission, _Overlap], now: float) -> List[_Transmission]:
    """The transmissions of a ``_hearing`` entry (``heard.end > now``) still on the air."""
    if heard.__class__ is _Overlap:
        return [other for other in heard if other.end > now]
    return [heard]


class BroadcastMedium:
    """Event-driven shared-channel model with collisions and overhearing."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        rng: random.Random,
        stats: Optional[NetworkStats] = None,
        broadcast_rate_bps: float = DEFAULT_BROADCAST_RATE_BPS,
        preamble_s: float = DEFAULT_PREAMBLE_S,
        base_loss: float = DEFAULT_BASE_LOSS,
        carrier_sense_factor: float = DEFAULT_CARRIER_SENSE_FACTOR,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.rng = rng
        # Default stats register their counters on the simulator's metrics
        # registry so one `sim.metrics` snapshot covers the whole stack.
        self.stats = stats if stats is not None else NetworkStats(sim.metrics)
        self._latency_hist = self.stats.registry.histogram(
            "net.per_hop_latency_s",
            (0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0),
        )
        self.broadcast_rate_bps = broadcast_rate_bps
        self.preamble_s = preamble_s
        self.base_loss = base_loss
        self.carrier_sense_factor = carrier_sense_factor
        self._receivers: Dict[NodeId, Callable[[Frame], None]] = {}
        #: Sender -> latest airtime end of its transmissions; the sender is
        #: on the air while that end is ``> now`` (older entries linger).
        self._on_air: Dict[NodeId, float] = {}
        #: Node -> latest airtime end of any sender within sense range of
        #: it (itself included); holds present nodes only and is exact for
        #: ``Topology.version == _sensed_version``.  Entries at or below
        #: ``now`` are stale but harmless: queries floor them at ``now``.
        self._sensed: Dict[NodeId, float] = {}
        self._sensed_version: int = -1
        #: The largest end pushed into ``_sensed`` since its last rebuild:
        #: no entry exceeds it, so an end at or above it only overwrites.
        self._sensed_bound: float = -math.inf
        #: Node -> the transmission it last started hearing, or the
        #: ``_Overlap`` of those it hears at once.  A reception is in
        #: progress while its ``end > now``; ``detach`` forgets the node.
        self._hearing: Dict[NodeId, Union[_Transmission, _Overlap]] = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, node_id: NodeId, deliver: Callable[[Frame], None]) -> None:
        """Register the frame-delivery callback of a node's radio."""
        self._receivers[node_id] = deliver

    def detach(self, node_id: NodeId) -> None:
        """Remove a node's radio (e.g. the user left)."""
        self._receivers.pop(node_id, None)
        self._hearing.pop(node_id, None)

    # ------------------------------------------------------------------
    # Channel state
    # ------------------------------------------------------------------
    def airtime(self, size_bytes: int) -> float:
        """Channel occupancy of a frame of the given total size."""
        return self.preamble_s + (size_bytes * 8) / self.broadcast_rate_bps

    def channel_busy(self, node_id: NodeId) -> bool:
        """Carrier sense: is any sensed node (or self) transmitting now?"""
        return self.busy_until(node_id) > self.sim.now

    def busy_until(self, node_id: NodeId) -> float:
        """Earliest time the channel around ``node_id`` could become free.

        ``now`` when no sensed node (nor ``node_id`` itself) is on the air,
        so ``busy_until(n) > now`` is the carrier-sense test.
        """
        now = self.sim.now
        if self._sensed_version != self.topology.version:
            self._rebuild_sensed()
        latest = self._sensed.get(node_id)
        if latest is None:
            # Absent nodes (and present ones no sender reached) sense only
            # their own transmission.
            latest = self._on_air.get(node_id)
            if latest is None:
                return now
        return latest if latest > now else now

    def _rebuild_sensed(self) -> None:
        """Recompute the sensed map from the on-air senders' positions now."""
        topology = self.topology
        now = self.sim.now
        sensed: Dict[NodeId, float] = {}
        self._sensed_bound = -math.inf
        for sender, end in self._on_air.items():
            if end > now and sender in topology:
                self._push_sensed(sensed, sender, end)
        self._sensed = sensed
        self._sensed_version = topology.version

    def _push_sensed(self, sensed: Dict[NodeId, float], sender: NodeId, end: float) -> None:
        """Raise ``sender``'s and its sense-range neighbours' entries to ``end``."""
        topology = self.topology
        nodes = topology.nodes_within_memo(
            sender, topology.radio_range * self.carrier_sense_factor
        )
        if end >= self._sensed_bound:
            # No entry exceeds the bound, so raising each to ``end`` is a
            # plain store (an equal entry keeps its value).
            self._sensed_bound = end
            sensed[sender] = end
            for node in nodes:
                sensed[node] = end
            return
        if end > sensed.get(sender, -math.inf):
            sensed[sender] = end
        for node in nodes:
            if end > sensed.get(node, -math.inf):
                sensed[node] = end

    def node_transmitting(self, node_id: NodeId) -> bool:
        """Whether the node itself is currently on the air."""
        return self._on_air.get(node_id, -math.inf) > self.sim.now

    def observe_state(self) -> Dict[str, float]:
        """Flight-recorder view: channel occupancy, strictly read-only.

        ``airtime_s`` is *cumulative* channel time derived exactly from
        the existing transmission counters (every frame contributes
        ``preamble + bits/rate``), so sampling adds no accounting to the
        :meth:`transmit` hot path; the recorder differentiates it into a
        per-interval utilization.  ``active_tx`` counts the senders still
        on the air (a radio airs one frame at a time).
        """
        now = self.sim.now
        return {
            "active_tx": sum(1 for end in self._on_air.values() if end > now),
            "airtime_s": (
                self.stats.frames_sent * self.preamble_s
                + (self.stats.bytes_sent * 8.0) / self.broadcast_rate_bps
            ),
        }

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, frame: Frame) -> float:
        """Put ``frame`` on the air now; returns its airtime.

        The radio is responsible for carrier sensing *before* calling this.
        Deliveries to every in-range node are scheduled at transmission end;
        collisions and half-duplex conflicts are marked as they happen.
        """
        now = self.sim.now
        size = frame.size
        duration = self.airtime(size)
        end = now + duration
        topology = self.topology
        sender = frame.sender
        self.stats.record_transmission(frame.kind, size)
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(
                "frame_sent",
                node=sender,
                frame_id=frame.frame_id,
                frame_kind=frame.kind,
                size=size,
                retx=frame.retransmission,
                airtime=duration,
                **frame_corr_fields(frame),
            )

        # Half duplex: starting to transmit ruins our own in-progress
        # receptions.
        hearing = self._hearing
        heard = hearing.get(sender)
        if heard is not None and heard.end > now:
            for other in _in_progress(heard, now):
                other.ruin(sender, "busy_receiver")

        on_air = self._on_air
        if sender in topology:
            if self._sensed_version == topology.version:
                # Push carrier sense: everyone in sense range (and the
                # sender itself) now hears the channel busy until ``end``.
                # A stale map is left alone; the next query rebuilds it
                # from ``_on_air``, which includes this transmission.
                self._push_sensed(self._sensed, sender, end)
            receivers = topology.nodes_within_memo(sender, topology.radio_range)
            if receivers:
                tx = _Transmission(now, end, frame, topology.version, receivers)
                for receiver in receivers:
                    heard = hearing.get(receiver)
                    if heard is None or heard.end <= now:
                        hearing[receiver] = tx
                    else:
                        # Collision: another in-range transmission is
                        # already being received here — both frames are
                        # ruined.
                        overlap = _Overlap(_in_progress(heard, now))
                        for other in overlap:
                            other.ruin(receiver, "collision")
                        tx.ruin(receiver, "collision")
                        overlap.append(tx)
                        overlap.end = max(heard.end, end)
                        hearing[receiver] = overlap
                    # Half duplex: the receiver itself is mid-transmission.
                    if on_air.get(receiver, -math.inf) > now:
                        tx.ruin(receiver, "busy_receiver")
                # One queue event fans out to every receiver.  The k
                # per-receiver events this replaces carried consecutive
                # sequence numbers, so nothing could ever interleave them:
                # delivering sequentially inside one event observes and
                # produces the exact same state transitions.
                self.sim.schedule(duration, self._deliver_all, tx)

        if end > on_air.get(sender, -math.inf):
            on_air[sender] = end
        return duration

    def _deliver_all(self, tx: _Transmission) -> None:
        """Deliver ``tx`` to every receiver, in neighbour order.

        Per-transmission invariants (frame fields, loss probability, trace
        correlation fields, per-hop latency...) are hoisted out of the
        per-receiver loop, and the delivery counters and latency histogram
        are bumped once after it — this runs once per frame for every
        in-range node, which makes it the hottest loop in the whole
        simulator.
        """
        sim = self.sim
        now = sim.now
        trace = sim.trace
        trace_enabled = trace.enabled
        frame = tx.frame
        sender = frame.sender
        corr = frame_corr_fields(frame) if trace_enabled else {}
        in_range = self.topology.in_range
        # Receivers came from ``neighbors(sender)`` at ``tx.version``; the
        # same disk predicate holds for them until the topology mutates.
        moved = self.topology.version != tx.version
        receivers = self._receivers
        ruined = tx.ruined
        base_loss = self.base_loss
        rng_random = self.rng.random
        delivered = 0
        lost: Dict[str, int] = {}
        for receiver in tx.receivers:
            deliver = receivers.get(receiver)
            # ``in_range`` covers nodes that left or moved apart during the
            # airtime: absent nodes are never in range.
            if deliver is None or (moved and not in_range(receiver, sender)):
                continue
            reason = ruined.get(receiver) if ruined is not None else None
            if reason is None and base_loss > 0 and rng_random() < base_loss:
                reason = "random"
            if reason is not None:
                lost[reason] = lost.get(reason, 0) + 1
                if trace_enabled:
                    trace.emit(
                        "frame_lost",
                        node=receiver,
                        frame_id=frame.frame_id,
                        sender=sender,
                        reason=reason,
                        **corr,
                    )
                continue
            delivered += 1
            if trace_enabled:
                trace.emit(
                    "frame_delivered",
                    node=receiver,
                    frame_id=frame.frame_id,
                    sender=sender,
                    frame_kind=frame.kind,
                    size=frame.size,
                    **corr,
                )
            deliver(frame)
        stats = self.stats
        for reason, count in lost.items():
            stats.record_loss(reason, count)
        if delivered:
            stats.record_delivery(delivered)
            # Per-hop latency, the same for every receiver: enqueue (when
            # stamped by the sending face) or transmission start, to
            # delivery.
            enqueued = frame.enqueued_at
            self._latency_hist.observe_many(
                now - (enqueued if enqueued is not None else tx.start), delivered
            )

