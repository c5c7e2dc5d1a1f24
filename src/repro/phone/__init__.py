"""Android prototype link model and single-hop experiment harness (§V)."""

from repro.phone.prototype import (
    MODES,
    PrototypeConfig,
    PrototypeResult,
    run_prototype,
)
from repro.phone.udp import (
    ANDROID_MAC_BROADCAST_BPS,
    ANDROID_OS_BUFFER_BYTES,
    PROTOTYPE_PACKET_BYTES,
    UdpSendModel,
    android_radio_config,
)

__all__ = [
    "ANDROID_MAC_BROADCAST_BPS",
    "ANDROID_OS_BUFFER_BYTES",
    "MODES",
    "PROTOTYPE_PACKET_BYTES",
    "PrototypeConfig",
    "PrototypeResult",
    "UdpSendModel",
    "android_radio_config",
    "run_prototype",
]
