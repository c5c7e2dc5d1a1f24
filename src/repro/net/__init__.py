"""Wireless substrate: topology, broadcast medium, radio, pacing, acks."""

from repro.net.faces import BroadcastFace
from repro.net.leaky_bucket import (
    DEFAULT_BUCKET_CAPACITY,
    DEFAULT_LEAK_RATE_BPS,
    LeakyBucket,
    LeakyBucketConfig,
)
from repro.net.medium import (
    DEFAULT_BASE_LOSS,
    DEFAULT_BROADCAST_RATE_BPS,
    BroadcastMedium,
)
from repro.net.message import ACK_PAYLOAD_BYTES, FRAME_HEADER_BYTES, AckMessage, Frame
from repro.net.radio import Radio, RadioConfig
from repro.net.recent import RecentIds
from repro.net.reliability import (
    DEFAULT_MAX_RETRANSMISSIONS,
    DEFAULT_RETR_TIMEOUT_S,
    ReliabilityConfig,
    ReliabilityReceiver,
    ReliabilitySender,
)
from repro.net.stats import NetworkStats
from repro.net.topology import (
    NodeId,
    Topology,
    build_grid,
    center_node,
    center_subgrid,
    grid_spacing_for_8_neighbors,
)

__all__ = [
    "ACK_PAYLOAD_BYTES",
    "AckMessage",
    "BroadcastFace",
    "BroadcastMedium",
    "DEFAULT_BASE_LOSS",
    "DEFAULT_BROADCAST_RATE_BPS",
    "DEFAULT_BUCKET_CAPACITY",
    "DEFAULT_LEAK_RATE_BPS",
    "DEFAULT_MAX_RETRANSMISSIONS",
    "DEFAULT_RETR_TIMEOUT_S",
    "FRAME_HEADER_BYTES",
    "Frame",
    "LeakyBucket",
    "LeakyBucketConfig",
    "NetworkStats",
    "NodeId",
    "Radio",
    "RadioConfig",
    "RecentIds",
    "ReliabilityConfig",
    "ReliabilityReceiver",
    "ReliabilitySender",
    "Topology",
    "build_grid",
    "center_node",
    "center_subgrid",
    "grid_spacing_for_8_neighbors",
]
