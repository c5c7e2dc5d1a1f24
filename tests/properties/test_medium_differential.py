"""The push-based carrier sense and slotted receptions of
:class:`BroadcastMedium` must behave exactly like the scanning medium
they replaced.

``ReferenceMedium`` below is the previous medium, copied in: dataclass
receptions and transmissions, and a carrier-sense query that scans every
sender on the air through the position map (the former
``Topology.latest_within``).  Both media run on their own simulator and
topology through the same random script — placements on and off the
sense-range lattice, overlapping transmissions, moves, removals and
re-adds during airtime, detaches and re-attaches, clocks landing exactly
on airtime ends — and every receiver must get the same delivered and lost
frames, with the same loss reasons, in the same order, while every
carrier-sense answer and every ``NetworkStats`` counter agrees.
"""

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.medium import (
    DEFAULT_BASE_LOSS,
    DEFAULT_BROADCAST_RATE_BPS,
    DEFAULT_CARRIER_SENSE_FACTOR,
    DEFAULT_PREAMBLE_S,
    BroadcastMedium,
)
from repro.net.message import Frame, frame_corr_fields
from repro.net.stats import NetworkStats
from repro.net.topology import NodeId, Topology
from repro.obs.trace import ListSink
from repro.sim.simulator import Simulator

# ----------------------------------------------------------------------
# Reference: the scanning medium.
# ----------------------------------------------------------------------


@dataclass
class _Reception:
    sender: NodeId
    start: float
    end: float
    ruined_by_collision: bool = False
    ruined_by_busy: bool = False


@dataclass
class _Transmission:
    sender: NodeId
    start: float
    end: float
    frame: Frame
    version: int
    receptions: Dict[NodeId, _Reception] = field(default_factory=dict)


class ReferenceMedium:
    """The previous ``BroadcastMedium``: carrier sense scans ``_on_air``."""

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
        self._prune_active()
        # The previous ``Topology.latest_within``, inlined.
        topology = self.topology
        radius = topology.radio_range * self.carrier_sense_factor
        ends = self._on_air
        latest = self.sim.now
        positions = topology._positions
        here = positions.get(node_id)
        if here is None:
            own = ends.get(node_id)
            return own if own is not None and own > latest else latest
        x, y = here
        for other, end in ends.items():
            if end > latest:
                there = positions.get(other)
                if there is not None and math.hypot(x - there[0], y - there[1]) <= radius:
                    latest = end
        return latest

    def node_transmitting(self, node_id: NodeId) -> bool:
        """Whether the node itself is currently on the air."""
        self._prune_active()
        return node_id in self._on_air

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


# ----------------------------------------------------------------------
# One script, driven identically on either medium.
# ----------------------------------------------------------------------

RADIO_RANGE = 25.0
NODES = range(8)
#: High enough that random losses interleave with the ruined receptions.
BASE_LOSS = 0.2

# Lattice points put pairs exactly on the radio and sense-range boundaries.
coord = st.one_of(
    st.sampled_from([0.0, 12.5, 25.0, 50.0, 75.0]),
    st.floats(min_value=0.0, max_value=80.0, allow_nan=False),
)
size = st.one_of(st.sampled_from([0, 1_500, 20_000]), st.integers(0, 20_000))
ops = st.lists(
    st.one_of(
        # Listed three times: overlapping airtimes are the point.
        st.tuples(st.just("transmit"), st.sampled_from(NODES), size),
        st.tuples(st.just("transmit"), st.sampled_from(NODES), size),
        st.tuples(st.just("transmit"), st.sampled_from(NODES), size),
        st.tuples(st.just("move"), st.sampled_from(NODES), coord, coord),
        st.tuples(st.just("remove"), st.sampled_from(NODES), st.booleans()),
        st.tuples(st.just("add"), st.sampled_from(NODES), coord, coord),
        st.tuples(st.just("attach"), st.sampled_from(NODES)),
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=0.01)),
        st.tuples(st.just("to_end"), st.integers(min_value=0, max_value=7)),
    ),
    min_size=5,
    max_size=80,
)


class Side:
    """One medium with its own simulator, topology, RNG and observers."""

    def __init__(self, cls, placement, seed, traced):
        self.sim = Simulator()
        self.sink = ListSink()
        if traced:
            self.sim.trace.subscribe(self.sink)
        self.topology = Topology(RADIO_RANGE)
        for node, position in zip(NODES, placement):
            self.topology.add_node(node, position)
        self.medium = cls(
            self.sim, self.topology, random.Random(seed), base_loss=BASE_LOSS
        )
        self.delivered = []
        self.ends = []
        for node in NODES:
            self.attach(node)

    def attach(self, node):
        sim = self.sim
        self.medium.attach(
            node, lambda frame: self.delivered.append((sim.now, node, frame.frame_id))
        )

    def apply(self, op, frame):
        kind, *args = op
        topology = self.topology
        if kind == "transmit":
            duration = self.medium.transmit(frame)
            self.ends.append(self.sim.now + duration)
        elif kind == "move":
            node, x, y = args
            if node in topology:
                topology.move(node, (x, y))
        elif kind == "remove":
            node, detach = args
            if node in topology:
                topology.remove_node(node)
                if detach:
                    self.medium.detach(node)
        elif kind == "add":
            node, x, y = args
            if node not in topology:
                topology.add_node(node, (x, y))
        elif kind == "attach":
            self.attach(args[0])
        elif kind == "advance":
            self.sim.run(until=self.sim.now + args[0])
        else:
            # Land exactly on an airtime end, where ``end > now`` flips.
            ends = sorted(end for end in self.ends if end > self.sim.now)
            if ends:
                self.sim.run(until=ends[min(args[0], len(ends) - 1)])

    def carrier_sense(self):
        medium = self.medium
        return [
            (
                medium.busy_until(node),
                medium.channel_busy(node),
                medium.node_transmitting(node),
            )
            for node in NODES
        ]

    def outcome(self):
        self.sim.run()
        trace = [
            (event.time, event.kind, event.node, sorted(event.fields.items()))
            for event in self.sink.events
        ]
        return (
            self.delivered,
            trace,
            self.medium.stats.snapshot(),
            self.sim.metrics.snapshot(),
            self.sim.now,
            self.sim.events_processed,
        )


@given(
    st.lists(st.tuples(coord, coord), min_size=len(NODES), max_size=len(NODES)),
    ops,
    st.integers(0, 2**16),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_medium_matches_scanning_reference(placement, batch, seed, traced):
    new = Side(BroadcastMedium, placement, seed, traced)
    ref = Side(ReferenceMedium, placement, seed, traced)
    assert new.carrier_sense() == ref.carrier_sense()
    for op in batch:
        # One frame object for both media: frame ids come from a global
        # counter, and neither medium mutates a frame.
        frame = None
        if op[0] == "transmit":
            frame = Frame(sender=op[1], payload=None, payload_size=op[2])
        new.apply(op, frame)
        ref.apply(op, frame)
        assert new.carrier_sense() == ref.carrier_sense()
    assert new.outcome() == ref.outcome()
