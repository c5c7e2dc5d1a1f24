"""Configuration dataclasses for devices and the PDS protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.net.leaky_bucket import LeakyBucketConfig
from repro.net.radio import RadioConfig
from repro.net.reliability import ReliabilityConfig


@dataclass(frozen=True)
class ProtocolConfig:
    """PDS protocol knobs shared by PDD and PDR.

    Attributes:
        query_ttl_s: Lifetime of a lingering query in the LQT (§III-A).
        metadata_ttl_s: Expiration of metadata entries cached without
            payload (§II-C).
        cdi_ttl_s: Expiration of CDI routing entries (§IV-A).
        max_response_payload_bytes: Metadata responses are packed into
            frames no larger than this (one UDP datagram).
        redundancy_detection: Whether queries carry Bloom filters and
            nodes rewrite messages en-route (§III-B-2).  Disabled for the
            single-round ablations.
        bloom_false_positive_rate: Target FP rate when sizing per-round
            Bloom filters (§V-3).
        bloom_max_bits: Cap on the per-round filter size (§V-3).
        cache_overheard_chunks: Whether non-addressed nodes cache chunk
            payloads they overhear.
        cache_relayed_chunks: Whether relays cache chunk payloads they
            forward.
    """

    query_ttl_s: float = 30.0
    metadata_ttl_s: Optional[float] = 120.0
    cdi_ttl_s: float = 30.0
    max_response_payload_bytes: int = 1400
    redundancy_detection: bool = True
    bloom_false_positive_rate: float = 0.01
    bloom_max_bits: int = 32768
    cache_overheard_chunks: bool = True
    cache_relayed_chunks: bool = True

    def __post_init__(self) -> None:
        if self.query_ttl_s <= 0:
            raise ConfigurationError("query_ttl_s must be positive")
        if self.max_response_payload_bytes < 64:
            raise ConfigurationError("max_response_payload_bytes too small")


@dataclass(frozen=True)
class DeviceConfig:
    """Full per-device stack configuration."""

    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    bucket: LeakyBucketConfig = field(default_factory=LeakyBucketConfig)
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    use_leaky_bucket: bool = True
