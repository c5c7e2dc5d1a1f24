"""Devices: the per-node composition of radio stack, store and engines."""

from repro.node.config import DeviceConfig, ProtocolConfig
from repro.node.device import Device

__all__ = [
    "Device",
    "DeviceConfig",
    "ProtocolConfig",
]
