"""Faces: the uniform network interface a device sees (§V).

PDS is an application-level design that treats every underlying network or
link technology as a *face*.  This module provides the broadcast face used
by both the prototype model and the multi-hop simulation: it composes the
leaky bucket (pacing), the reliability layer (per-hop ack/retransmission)
and the radio (OS buffer + CSMA) into one send/receive interface.

Send path:    protocol → ReliabilitySender → LeakyBucket → Radio → Medium
Receive path: Medium → face (ack handling / dedup) → protocol upcall
"""

from __future__ import annotations

import random
from typing import Callable, FrozenSet, List, Optional

from repro.net.leaky_bucket import LeakyBucket, LeakyBucketConfig
from repro.net.medium import BroadcastMedium
from repro.net.message import AckMessage, Frame
from repro.net.radio import Radio, RadioConfig
from repro.net.reliability import (
    ReliabilityConfig,
    ReliabilityReceiver,
    ReliabilitySender,
)
from repro.net.topology import NodeId
from repro.sim.simulator import Simulator

#: Callback signature for payload delivery: (frame, addressed_to_me).
ReceiveCallback = Callable[[Frame, bool], None]


class BroadcastFace:
    """One-hop UDP-broadcast face with pacing and per-hop reliability."""

    def __init__(
        self,
        sim: Simulator,
        medium: BroadcastMedium,
        node_id: NodeId,
        rng: random.Random,
        radio_config: Optional[RadioConfig] = None,
        bucket_config: Optional[LeakyBucketConfig] = None,
        reliability_config: Optional[ReliabilityConfig] = None,
        use_leaky_bucket: bool = True,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.node_id = node_id
        self.radio = Radio(sim, medium, node_id, rng, radio_config)
        self.use_leaky_bucket = use_leaky_bucket
        self.bucket = LeakyBucket(
            sim, self.radio.send, bucket_config, on_drop=self._on_os_drop
        )
        self.sender = ReliabilitySender(
            sim,
            self._submit,
            reliability_config,
            airtime=medium.airtime,
            cancel_queued=self._cancel_queued,
        )
        self.receiver = ReliabilityReceiver(node_id, self._send_ack)
        self._receive_callback: Optional[ReceiveCallback] = None
        medium.attach(node_id, self._on_frame)
        self.radio.on_sent(self.sender.frame_transmitted)

    # ------------------------------------------------------------------
    def on_receive(self, callback: ReceiveCallback) -> None:
        """Register the protocol upcall for every newly heard payload."""
        self._receive_callback = callback

    def neighbors(self) -> List[NodeId]:
        """Current one-hop neighbors (hello-protocol knowledge)."""
        return self.medium.topology.neighbors(self.node_id)

    def send(
        self,
        payload: object,
        payload_size: int,
        receivers: Optional[FrozenSet[NodeId]] = None,
        kind: str = "data",
        reliable: bool = True,
    ) -> Frame:
        """Transmit a protocol message.

        Args:
            receivers: Intended receiver set, or None to address all
                neighbors (flooding).  Every in-range node overhears the
                frame either way.
            reliable: Whether the per-hop ack/retransmission machinery
                should cover this frame.  Acks are expected from the
                explicit receiver set, or from all current neighbors when
                flooding.
        """
        # Duck-typed correlation: protocol messages expose `correlation()`
        # with the causal ids to stamp on link-level trace events; the net
        # layer stays ignorant of concrete message types.
        correlate = getattr(payload, "correlation", None)
        frame = Frame(
            sender=self.node_id,
            payload=payload,
            payload_size=payload_size,
            receivers=receivers,
            kind=kind,
            enqueued_at=self.sim.now,
            corr=correlate() if callable(correlate) else None,
        )
        if reliable:
            ack_from = receivers if receivers is not None else frozenset(self.neighbors())
        else:
            ack_from = frozenset()
        self.sender.send(frame, ack_from)
        return frame

    def shutdown(self) -> None:
        """Tear the face down (node left the area)."""
        self.sender.cancel_all()
        self.bucket.flush()
        self.radio.shutdown()

    def observe_state(self) -> dict:
        """Flight-recorder view: queue depths along the send path."""
        return {
            "sendq": self.bucket.queue_length,
            "sendq_bytes": self.bucket.queued_bytes,
            "radioq": self.radio.queue_length,
            "retx": self.sender.outstanding,
        }

    # ------------------------------------------------------------------
    def _submit(self, frame: Frame) -> None:
        if self.use_leaky_bucket:
            self.bucket.offer(frame)
        else:
            accepted = self.radio.send(frame)
            if not accepted:
                self._on_os_drop(frame)

    def _cancel_queued(self, frame: Frame) -> None:
        if not self.bucket.remove(frame):
            self.radio.remove(frame)

    def _on_os_drop(self, frame: Frame) -> None:
        # The OS buffer silently discarded the frame; let the reliability
        # layer schedule a retransmission if the frame is covered.
        self.sender.frame_dropped(frame)

    def _send_ack(self, ack_frame: Frame) -> None:
        # Acks bypass the bucket: they are tiny and pacing them behind
        # queued data frames would defeat the retransmission timeout.
        self.radio.send(ack_frame, priority=True)

    def _on_frame(self, frame: Frame) -> None:
        payload = frame.payload
        if isinstance(payload, AckMessage):
            # An ack names one receiver, the acked frame's sender.  Frame
            # ids are fresh per logical send and retries keep their sender,
            # so no other node holds that id pending: overheard acks stop
            # here.
            if self.node_id in frame.receivers:
                self.sender.ack_received(payload)
            return
        is_new = self.receiver.accept(frame)
        if not is_new:
            return
        if self._receive_callback is not None:
            self._receive_callback(frame, frame.addressed_to(self.node_id))
