"""Single-hop prototype harness: the §V-4 phone experiments.

Reproduces the measurement setup of the paper's Android prototype: a set
of sender phones within one hop of a receiver phone, blasting 1.5 KB UDP
broadcast packets, under three configurations (Fig. 3):

* ``raw``        — straight into the OS buffer (silent overflow, ≈14%);
* ``bucket``     — leaky-bucket paced (no retransmission);
* ``bucket_ack`` — leaky bucket + per-hop ack/retransmission.

The harness measures the *reception rate*: distinct application messages
heard by the receiver over distinct messages the sender side committed to
the network (messages still backlogged in pacing queues when the run ends
are excluded — they were neither transmitted nor lost).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigurationError
from repro.net.faces import BroadcastFace
from repro.net.leaky_bucket import LeakyBucketConfig
from repro.net.medium import BroadcastMedium
from repro.net.message import FRAME_HEADER_BYTES, Frame
from repro.net.reliability import ReliabilityConfig
from repro.net.stats import NetworkStats
from repro.net.topology import Topology
from repro.phone.udp import PROTOTYPE_PACKET_BYTES, android_radio_config
from repro.sim.simulator import Simulator

#: Valid prototype modes (Fig. 3 series).
MODES = ("raw", "bucket", "bucket_ack")


@dataclass(frozen=True)
class PrototypeConfig:
    """One single-hop experiment.

    Attributes:
        n_senders: Concurrent sender phones (Fig. 3 x-axis).
        mode: One of ``raw`` / ``bucket`` / ``bucket_ack``.
        packets_per_sender: Workload each sender generates.
        app_rate_bps: Rate at which the application calls the send API
            ("as quickly as possible" in the paper — far above the MAC
            broadcast rate).
        bucket: Leaky-bucket parameters (BucketCapacity / LeakingRate).
        reliability: Ack/retransmission parameters (RetrTimeout /
            MaxRetrTime).
    """

    n_senders: int = 1
    mode: str = "bucket_ack"
    packets_per_sender: int = 6000
    app_rate_bps: float = 50e6
    bucket: LeakyBucketConfig = field(default_factory=LeakyBucketConfig)
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode}")
        if self.n_senders < 1:
            raise ConfigurationError("need at least one sender")
        if self.packets_per_sender < 1:
            raise ConfigurationError("need at least one packet")


@dataclass
class PrototypeResult:
    """Outcome of one run."""

    received: int
    committed: int
    generated: int
    duration_s: float
    stats: NetworkStats

    @property
    def reception_rate(self) -> float:
        """Distinct messages received / messages committed to the network."""
        if self.committed == 0:
            return 0.0
        return self.received / self.committed

    @property
    def goodput_bps(self) -> float:
        """Application-level receive rate over the run."""
        if self.duration_s <= 0:
            return 0.0
        return self.received * PROTOTYPE_PACKET_BYTES * 8 / self.duration_s


def run_prototype(config: PrototypeConfig, seed: int = 0) -> PrototypeResult:
    """Run one single-hop experiment and return its measurements."""
    sim = Simulator()
    topology = Topology(radio_range=20.0)
    stats = NetworkStats(sim.metrics)
    medium = BroadcastMedium(
        sim, topology, random.Random(seed * 7919 + 13), stats=stats
    )
    receiver_id = 0
    topology.add_node(receiver_id, (0.0, 0.0))
    sender_ids = list(range(1, config.n_senders + 1))
    # Senders ring the receiver, all mutually within range (one hop).
    for index, sender_id in enumerate(sender_ids):
        angle = index / max(1, len(sender_ids))
        topology.add_node(sender_id, (5.0 + angle, 5.0 - angle))

    use_bucket = config.mode in ("bucket", "bucket_ack")
    reliable = config.mode == "bucket_ack"
    reliability = config.reliability
    if not reliable:
        reliability = ReliabilityConfig(
            retr_timeout_s=reliability.retr_timeout_s,
            max_retransmissions=reliability.max_retransmissions,
            backoff_factor=reliability.backoff_factor,
            enabled=False,
        )

    received_ids = set()

    def on_receive(frame: Frame, addressed: bool) -> None:
        if addressed and frame.kind == "proto":
            received_ids.add(frame.frame_id)

    receiver_face = BroadcastFace(
        sim,
        medium,
        receiver_id,
        random.Random(seed * 31 + 5),
        radio_config=android_radio_config(),
        bucket_config=config.bucket,
        reliability_config=reliability,
        use_leaky_bucket=use_bucket,
    )
    receiver_face.on_receive(on_receive)

    faces: Dict[int, BroadcastFace] = {}
    for sender_id in sender_ids:
        faces[sender_id] = BroadcastFace(
            sim,
            medium,
            sender_id,
            random.Random(seed * 31 + sender_id),
            radio_config=android_radio_config(),
            bucket_config=config.bucket,
            reliability_config=reliability,
            use_leaky_bucket=use_bucket,
        )

    packet_payload = PROTOTYPE_PACKET_BYTES - FRAME_HEADER_BYTES
    interval = PROTOTYPE_PACKET_BYTES * 8 / config.app_rate_bps
    generated = 0

    def make_generator(sender_id: int):
        remaining = [config.packets_per_sender]

        def generate() -> None:
            nonlocal generated
            if remaining[0] <= 0:
                return
            remaining[0] -= 1
            generated += 1
            faces[sender_id].send(
                payload=("pkt", sender_id, remaining[0]),
                payload_size=packet_payload,
                receivers=frozenset({receiver_id}),
                kind="proto",
                reliable=reliable,
            )
            if remaining[0] > 0:
                sim.schedule(interval, generate)

        return generate

    for sender_id in sender_ids:
        sim.schedule(0.0, make_generator(sender_id))

    # Run to quiescence: generation is a fixed workload, pacing queues
    # drain, and retransmissions settle — the paper measures reception of
    # the workload, so cutting off mid-drain would conflate backlog with
    # loss.  A generous cap guards against runaway configurations.
    cap = 3600.0
    while sim.pending_events and sim.now < cap:
        sim.run(until=min(cap, sim.now + 30.0))

    # Messages still backlogged in pacing queues were neither transmitted
    # nor lost; exclude them from the denominator.  Retransmission copies
    # in the queues do not count — their original already had its chance.
    backlog = 0
    for face in faces.values():
        for queued in face.bucket.queued_frames():
            if queued.retransmission == 0:
                backlog += 1
        for queued in face.radio.queued_frames():
            if queued.retransmission == 0:
                backlog += 1
    committed = generated - backlog

    return PrototypeResult(
        received=len(received_ids),
        committed=max(0, committed),
        generated=generated,
        duration_s=sim.now,
        stats=stats,
    )

