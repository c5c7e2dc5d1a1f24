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

Cost model.  The medium keeps one ``sender → latest airtime end`` map of
the nodes on the air.  A carrier-sense query (:meth:`busy_until`, one per
CSMA attempt) is a single pass over that map inside
:meth:`Topology.latest_within`, so it costs O(on-air senders), not
O(nodes in sense range).  The same map answers :meth:`node_transmitting`
and the per-frame half-duplex test.  At delivery, a receiver is re-checked
against the radio range only when the topology's ``version`` moved since
the frame went on the air: with no mutation in between, the receivers
``neighbors(sender)`` picked at transmission are still exactly in range.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

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


@dataclass
class _Reception:
    """One pending frame delivery at one receiver."""

    sender: NodeId
    start: float
    end: float
    ruined_by_collision: bool = False
    ruined_by_busy: bool = False


@dataclass
class _Transmission:
    """One in-flight transmission."""

    sender: NodeId
    start: float
    end: float
    frame: Frame
    #: ``Topology.version`` when the receivers were picked.
    version: int
    receptions: Dict[NodeId, _Reception] = field(default_factory=dict)


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
        #: Transmissions whose airtime has not ended yet.
        self._active: List[_Transmission] = []
        #: Sender -> latest end among its ``_active`` transmissions.
        self._on_air: Dict[NodeId, float] = {}
        #: Earliest end time among ``_active`` — lets carrier-sense calls
        #: skip the prune scan while every transmission is still on the air.
        self._active_min_end: float = math.inf
        #: Receptions in progress, per receiving node.
        self._receiving: Dict[NodeId, List[_Reception]] = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, node_id: NodeId, deliver: Callable[[Frame], None]) -> None:
        """Register the frame-delivery callback of a node's radio."""
        self._receivers[node_id] = deliver

    def detach(self, node_id: NodeId) -> None:
        """Remove a node's radio (e.g. the user left)."""
        self._receivers.pop(node_id, None)
        self._receiving.pop(node_id, None)

    # ------------------------------------------------------------------
    # Channel state
    # ------------------------------------------------------------------
    def airtime(self, size_bytes: int) -> float:
        """Channel occupancy of a frame of the given total size."""
        return self.preamble_s + (size_bytes * 8) / self.broadcast_rate_bps

    def _prune_active(self) -> None:
        now = self.sim.now
        if now < self._active_min_end:
            return
        active = [tx for tx in self._active if tx.end > now]
        self._active = active
        self._active_min_end = min((tx.end for tx in active), default=math.inf)
        self._on_air = {sender: end for sender, end in self._on_air.items() if end > now}

    def channel_busy(self, node_id: NodeId) -> bool:
        """Carrier sense: is any sensed node (or self) transmitting now?"""
        return self.busy_until(node_id) > self.sim.now

    def busy_until(self, node_id: NodeId) -> float:
        """Earliest time the channel around ``node_id`` could become free.

        ``now`` when no sensed node (nor ``node_id`` itself) is on the air,
        so ``busy_until(n) > now`` is the carrier-sense test.
        """
        self._prune_active()
        topology = self.topology
        return topology.latest_within(
            node_id,
            self._on_air,
            topology.radio_range * self.carrier_sense_factor,
            self.sim.now,
        )

    def node_transmitting(self, node_id: NodeId) -> bool:
        """Whether the node itself is currently on the air."""
        self._prune_active()
        return node_id in self._on_air

    def observe_state(self) -> Dict[str, float]:
        """Flight-recorder view: channel occupancy, strictly read-only.

        ``airtime_s`` is *cumulative* channel time derived exactly from
        the existing transmission counters (every frame contributes
        ``preamble + bits/rate``), so sampling adds no accounting to the
        :meth:`transmit` hot path; the recorder differentiates it into a
        per-interval utilization.  ``active_tx`` counts transmissions
        still on the air without pruning the list.
        """
        now = self.sim.now
        return {
            "active_tx": sum(1 for tx in self._active if tx.end > now),
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
        self._prune_active()
        duration = self.airtime(frame.size)
        end = now + duration
        topology = self.topology
        tx = _Transmission(
            sender=frame.sender, start=now, end=end, frame=frame, version=topology.version
        )
        self.stats.record_transmission(frame.kind, frame.size)
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(
                "frame_sent",
                node=frame.sender,
                frame_id=frame.frame_id,
                frame_kind=frame.kind,
                size=frame.size,
                retx=frame.retransmission,
                airtime=duration,
                **frame_corr_fields(frame),
            )

        # Half duplex: starting to transmit ruins our own in-progress
        # receptions.
        for reception in self._receiving.get(frame.sender, ()):
            if reception.end > now:
                reception.ruined_by_busy = True

        on_air = self._on_air
        if frame.sender in topology:
            receivers = topology.neighbors(frame.sender)
            if receivers:
                receiving = self._receiving
                for receiver in receivers:
                    reception = _Reception(sender=frame.sender, start=now, end=end)
                    # Collision: another in-range transmission is already
                    # being received here — both frames are ruined.
                    for other in receiving.get(receiver, ()):
                        if other.end > now:
                            other.ruined_by_collision = True
                            reception.ruined_by_collision = True
                    # Half duplex: the receiver itself is mid-transmission.
                    if receiver in on_air:
                        reception.ruined_by_busy = True
                    receiving.setdefault(receiver, []).append(reception)
                    tx.receptions[receiver] = reception
                # One queue event fans out to every receiver.  The k
                # per-receiver events this replaces carried consecutive
                # sequence numbers, so nothing could ever interleave them:
                # delivering sequentially inside one event observes and
                # produces the exact same state transitions.
                self.sim.schedule(duration, self._deliver_all, tx)

        self._active.append(tx)
        if end < self._active_min_end:
            self._active_min_end = end
        if end > on_air.get(frame.sender, -math.inf):
            on_air[frame.sender] = end
        return duration

    def _deliver_all(self, tx: _Transmission) -> None:
        """Deliver ``tx`` to every pending receiver, in schedule order.

        Per-transmission invariants (frame fields, loss probability, trace
        correlation fields...) are hoisted out of the per-receiver loop —
        this runs once per frame for every in-range node, which makes it
        the hottest loop in the whole simulator.
        """
        receptions = tx.receptions
        if not receptions:
            return
        tx.receptions = {}
        sim = self.sim
        now = sim.now
        trace = sim.trace
        trace_enabled = trace.enabled
        frame = tx.frame
        sender = tx.sender
        frame_size = frame.size
        corr = frame_corr_fields(frame) if trace_enabled else {}
        in_range = self.topology.in_range
        # Receivers came from ``neighbors(sender)`` at ``tx.version``; the
        # same disk predicate holds for them until the topology mutates.
        moved = self.topology.version != tx.version
        receivers = self._receivers
        receiving = self._receiving
        base_loss = self.base_loss
        rng_random = self.rng.random
        record_loss = self.stats.record_loss
        record_delivery = self.stats.record_delivery
        observe = self._latency_hist.observe
        # Per-hop latency: enqueue (when stamped by the sending face) or
        # transmission start, to delivery.
        enqueued = frame.enqueued_at
        latency_base = enqueued if enqueued is not None else tx.start
        for receiver, reception in receptions.items():
            in_progress = receiving.get(receiver)
            if in_progress is not None:
                try:
                    in_progress.remove(reception)
                except ValueError:
                    pass
                if not in_progress:
                    del receiving[receiver]
            deliver = receivers.get(receiver)
            # ``in_range`` covers nodes that left or moved apart during the
            # airtime: absent nodes are never in range.
            if deliver is None or (moved and not in_range(receiver, sender)):
                continue
            if reception.ruined_by_busy:
                record_loss("busy_receiver")
                if trace_enabled:
                    trace.emit(
                        "frame_lost",
                        node=receiver,
                        frame_id=frame.frame_id,
                        sender=sender,
                        reason="busy_receiver",
                        **corr,
                    )
                continue
            if reception.ruined_by_collision:
                record_loss("collision")
                if trace_enabled:
                    trace.emit(
                        "frame_lost",
                        node=receiver,
                        frame_id=frame.frame_id,
                        sender=sender,
                        reason="collision",
                        **corr,
                    )
                continue
            if base_loss > 0 and rng_random() < base_loss:
                record_loss("random")
                if trace_enabled:
                    trace.emit(
                        "frame_lost",
                        node=receiver,
                        frame_id=frame.frame_id,
                        sender=sender,
                        reason="random",
                        **corr,
                    )
                continue
            record_delivery()
            observe(now - latency_base)
            if trace_enabled:
                trace.emit(
                    "frame_delivered",
                    node=receiver,
                    frame_id=frame.frame_id,
                    sender=sender,
                    frame_kind=frame.kind,
                    size=frame_size,
                    **corr,
                )
            deliver(frame)
